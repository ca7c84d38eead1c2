import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from horizon_deflators import build_survival

import trees


@pytest.fixture(scope="session")
def demo():
    """The canonical 4-atom, 2-date example with its random time and price."""
    space, tau, S = trees.two_period_demo()
    return space, tau, S


@pytest.fixture(scope="session")
def demo_rts(demo):
    space, tau, _ = demo
    return build_survival(space, tau)


def frac_table(rows):
    """Fraction literals -> float array (atom, time)."""
    return np.array([[float(Fraction(v)) for v in row] for row in rows])
