import os
from pathlib import Path

import mpmath as mp
import pytest

import twistlab
from twistlab.funceq import zeta2_datum
from twistlab.twist import divisor_stream


@pytest.fixture(autouse=True)
def working_precision_128():
    """All tests run at the package's default 128-bit working precision."""
    old = mp.mp.prec
    mp.mp.prec = 128
    yield
    mp.mp.prec = old


@pytest.fixture(scope="session")
def zeta2():
    return zeta2_datum()


@pytest.fixture(scope="session")
def divisors():
    return divisor_stream()


@pytest.fixture(scope="session")
def checkout_env():
    """Environment for a child interpreter that imports this checkout's
    package even when it is not installed."""
    src_dir = str(Path(twistlab.__file__).resolve().parent.parent)
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")])),
    }
