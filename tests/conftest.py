import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def fresh_caches():
    # Keep memoized item-side optima from leaking between tests.
    from fairrec.optimizer import clear_caches

    clear_caches()
    yield


@pytest.fixture
def highs_models(monkeypatch):
    """Every HiGHS model ``fairrec.lp`` builds during the test, in order, as
    (solver, columns, rows): "ipm" for ``solve_lp``'s cold IPX solve,
    "simplex" for a ``WarmLP``, None for a QP."""
    from fairrec import lp

    models, real = [], lp._silent_highs

    def recorded(cost, lb, ub, row_lower, *model, **options):
        models.append((options.get("solver"), len(cost), len(row_lower)))
        return real(cost, lb, ub, row_lower, *model, **options)

    monkeypatch.setattr(lp, "_silent_highs", recorded)
    return models


@pytest.fixture
def worked_instance():
    """Mirrored two-type population, v = (3, 2, 1), alpha = 1/2, ten users."""
    from fairrec.populations import gen_two_type

    return gen_two_type(np.array([3.0, 2.0, 1.0]), 0.5, 10)


def random_positive_matrix(rng, m: int, n: int) -> np.ndarray:
    return rng.uniform(0.05, 1.0, size=(m, n))


def duplicated_item_matrix(seed: int) -> np.ndarray:
    """A uniform(0.1, 1) 4 x 3 matrix with a copy of item 0 appended as item 3.

    Swapping the two copies maps every optimal face to itself, so the
    canonical point splits their mass evenly; the faces have positive
    dimension, so the canonical projection solves a QP on some of them.
    """
    base = np.random.default_rng(seed).uniform(0.1, 1.0, (4, 3))
    return np.column_stack([base, base[:, 0]])
