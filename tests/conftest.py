import pytest

from hideseek import _kernels


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Run one tiny scan first, so that no test timing pays numba's JIT
    compilation or numpy's first-call costs."""
    _kernels.warmup()
