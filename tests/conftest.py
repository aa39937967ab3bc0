import numpy as np
import pytest

from qthermo import DensityMatrix, Hamiltonian, measurement, pure_state, thermal_state, thermo
from qthermo.dissipation import KET_EE, KET_GG, PSI_MINUS

LN2 = np.log(2.0)

# two-qubit basis ordering {ee, eg, ge, gg}; single qubit is (e, g)
BELL_PHI_PLUS = (KET_EE + KET_GG) / np.sqrt(2.0)


# The library's one-entry memos: the temperature fit, the global work pair and
# the outcomes of a (state, POVM) pair.  A test that compares warm values with
# cold ones clears all three first, so no cold value comes from a memo that
# another test (or module) left warm.
ONE_ENTRY_MEMOS = {
    "fit": thermo._fitted_beta,
    "work": thermo._global_work,
    "outcomes": measurement._outcomes,
}


def clear_memos() -> None:
    for memo in ONE_ENTRY_MEMOS.values():
        memo.cache_clear()


def memo_misses() -> dict[str, int]:
    """Body runs so far of each memo, by the names of ``ONE_ENTRY_MEMOS``."""
    return {name: memo.cache_info().misses for name, memo in ONE_ENTRY_MEMOS.items()}


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def qubit_h():
    """omega |e><e| with omega = 1 in the (e, g) basis."""
    return Hamiltonian(np.diag([1.0, 0.0]).astype(complex))


@pytest.fixture
def bell_state():
    return pure_state(BELL_PHI_PLUS, dims=(2, 2))


@pytest.fixture
def singlet():
    return pure_state(PSI_MINUS, dims=(2, 2))


def product_thermal(beta: float, h: Hamiltonian) -> DensityMatrix:
    tau = thermal_state(h, beta)
    return DensityMatrix(np.kron(tau.matrix, tau.matrix), dims=(2, 2))


def bisect_to_end(below_root, lo: float, hi: float) -> float:
    """The point of [lo, hi] where ``below_root`` turns from true to false,
    by a bisection run until its bracket cannot shrink further."""
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if below_root(mid):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid
