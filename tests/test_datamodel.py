import numpy as np
import pytest

from mqrank import (Dataset, HypothesisSubset, QuantileSpec, ValidationError,
                    all_subsets, validate)
from mqrank.datamodel import _distinct_count
from helpers import make_dataset


@pytest.fixture
def good_pair():
    rng = np.random.default_rng(1)
    ds = make_dataset(rng, n=100)
    return ds, QuantileSpec((0.1, 0.5, 0.9))


def test_valid_inputs_pass_through(good_pair):
    ds, spec = good_pair
    out_ds, out_spec = validate(ds, spec)
    assert out_ds is ds
    assert out_spec is spec


def test_validate_is_idempotent(good_pair):
    pair = validate(*good_pair)
    assert validate(*pair) == pair


def test_missing_intercept(good_pair):
    ds, spec = good_pair
    bad = Dataset(y=ds.y, x=ds.x, Z=np.column_stack([ds.Z[:, 1], ds.Z[:, 0]]))
    with pytest.raises(ValidationError) as exc:
        validate(bad, spec)
    assert "MissingIntercept" in exc.value.codes


def test_duplicate_quantile(good_pair):
    ds, _ = good_pair
    with pytest.raises(ValidationError) as exc:
        validate(ds, QuantileSpec((0.5, 0.5)))
    assert "DuplicateQuantile" in exc.value.codes


def test_quantile_out_of_range(good_pair):
    ds, _ = good_pair
    for taus in ((0.0, 0.5), (0.5, 1.0), (-0.1,), (1.2,)):
        with pytest.raises(ValidationError) as exc:
            validate(ds, QuantileSpec(taus))
        assert "QuantileOutOfRange" in exc.value.codes


def test_non_finite_data(good_pair):
    ds, spec = good_pair
    y = ds.y.copy()
    y[3] = np.nan
    with pytest.raises(ValidationError) as exc:
        validate(Dataset(y=y, x=ds.x, Z=ds.Z), spec)
    assert "NonFiniteData" in exc.value.codes


def test_sample_too_small():
    n, p = 4, 3
    rng = np.random.default_rng(2)
    Z = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    ds = Dataset(y=rng.normal(size=n), x=rng.normal(size=n), Z=Z)
    with pytest.raises(ValidationError) as exc:
        validate(ds, QuantileSpec((0.5,)))
    assert "SampleTooSmall" in exc.value.codes


def test_constant_response_rejected(good_pair):
    ds, spec = good_pair
    const = Dataset(y=np.ones_like(ds.y), x=ds.x, Z=ds.Z)
    with pytest.raises(ValidationError) as exc:
        validate(const, spec)
    assert "SampleTooSmall" in exc.value.codes


def test_distinct_count_equals_numpy_unique_size():
    # every NaN is one value, -0.0 equals 0.0, and each infinity is a value
    pool = np.array([np.nan, -0.0, 0.0, np.inf, -np.inf, 1.0, -1.0, 0.5,
                     5e-324, -5e-324])
    rng = np.random.default_rng(23)
    cases = [np.array([]), np.array([np.nan]), np.array([-0.0, 0.0]),
             np.array([np.nan, np.nan, -np.inf, np.inf, np.inf]), pool]
    cases += [rng.choice(pool, size) for size in rng.integers(1, 30, 300)]
    for v in cases:
        assert _distinct_count(v) == np.unique(v).size, v


def test_null_value_count_has_its_own_code(good_pair):
    ds, _ = good_pair
    with pytest.raises(ValidationError) as exc:
        validate(ds, QuantileSpec((0.25, 0.5), (0.0,)))
    assert exc.value.codes == ["NullValueCount"]


def test_all_violations_reported():
    rng = np.random.default_rng(3)
    n = 30
    Z = np.column_stack([rng.normal(size=n), rng.normal(size=n)])  # no intercept
    y = rng.normal(size=n)
    y[0] = np.inf
    ds = Dataset(y=y, x=rng.normal(size=n), Z=Z)
    with pytest.raises(ValidationError) as exc:
        validate(ds, QuantileSpec((0.3, 0.3, 1.5)))
    codes = set(exc.value.codes)
    assert {"MissingIntercept", "NonFiniteData", "DuplicateQuantile",
            "QuantileOutOfRange"} <= codes
    assert all(issue.message for issue in exc.value.issues)


def test_multi_column_target_rejected(good_pair):
    ds, spec = good_pair
    wide_x = np.column_stack([ds.x, ds.x ** 2])
    with pytest.raises(ValidationError):
        validate(Dataset(y=ds.y, x=wide_x, Z=ds.Z), spec)


def test_quantile_spec_sorts_levels_with_null_values():
    spec = QuantileSpec((0.9, 0.1, 0.5), null_values=(9.0, 1.0, 5.0))
    assert spec.taus == (0.1, 0.5, 0.9)
    assert spec.null_values == (1.0, 5.0, 9.0)


def test_quantile_spec_default_nulls_zero():
    spec = QuantileSpec((0.25, 0.75))
    assert spec.null_values == (0.0, 0.0)


def test_hypothesis_subset_canonical_order():
    sub = HypothesisSubset((3, 1, 2))
    assert sub.indices == (1, 2, 3)
    assert str(sub) == "1,2,3"
    assert list(sub.positions()) == [0, 1, 2]


def test_hypothesis_subset_rejects_bad_input():
    with pytest.raises(ValueError):
        HypothesisSubset(())
    with pytest.raises(ValueError):
        HypothesisSubset((1, 1))
    with pytest.raises(ValueError):
        HypothesisSubset((0, 1))


def test_all_subsets_enumeration():
    subs = all_subsets(4)
    assert len(subs) == 15
    assert len(set(subs)) == 15
    assert subs[0].indices == (1,)
    assert subs[-1].indices == (1, 2, 3, 4)
