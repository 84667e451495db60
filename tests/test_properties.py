"""Invariants checked as properties over generated inputs."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from latentgeom import Shape, dims, jacobian_rank  # noqa: E402
from conftest import seeded_chain  # noqa: E402


@settings(max_examples=60, deadline=None)
@given(r1=st.integers(2, 5), r2=st.integers(2, 3), r3=st.integers(2, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_jacobian_rank_is_model_dimension(r1, r2, r3, seed):
    params = seeded_chain((r1, r2, r3), seed)
    assert jacobian_rank(params) == dims(Shape(r1, r2, r3)).t
