"""Array shapes declared as field types: one check refuses a misshapen array
of any model or explanation, naming its field."""

import dataclasses
import typing
from typing import Annotated

import numpy as np
import pytest

from credo.baselines import Classifier, GaussianNBModel, LogisticModel, TreeModel, fit_gnb, fit_logreg, fit_tree
from credo.bounds import Range, Shape, field_types
from credo.errors import DataError
from credo.explain import LimeConfig, LimeExplanation, MorrisConfig, MorrisScreening, lime_explain, morris_screen
from credo.frame import numeric_frame
from credo.gbt import BoostedEnsemble, GbtConfig, RegressionTree, fit_gbt
from credo.lda import ProjectionLDA, fit_lda
from credo.neural import Mlp
from credo.trees import FlatTree
from credo.zoo import MODEL_FAMILIES


def _reachable() -> set:
    """Every dataclass that a model family's class is, holds or derives
    from, and the two explanation classes."""
    seen, todo = set(), [*(cls for *_, cls in MODEL_FAMILIES.values()), LimeExplanation, MorrisScreening]
    while todo:
        cls = todo.pop()
        if cls in seen or not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
            continue
        seen.add(cls)
        todo += cls.__mro__[1:]
        for hint in field_types(cls).values():
            todo += [hint, *typing.get_args(hint)]
    return seen


def _bare(hint):
    return hint.__origin__ if typing.get_origin(hint) is Annotated else hint


def _shape(hint) -> Shape | None:
    return next((m for m in getattr(hint, "__metadata__", ()) if isinstance(m, Shape)), None)


def _shaped_fields(cls) -> list:
    """(name, Shape) per shaped field of `cls`, in field order."""
    found = [(f.name, _shape(field_types(cls)[f.name])) for f in dataclasses.fields(cls)]
    return [(name, shape) for name, shape in found if shape is not None]


CLASSES = _reachable()

# four features, three classes and two LDA components: every named size differs
_LABELS = np.repeat([0, 1, 2], 10)
TRAIN = numeric_frame(np.random.default_rng(0).normal(size=(30, 4)) + _LABELS[:, None], labels=_LABELS)
TREE = fit_tree(TRAIN)
BOOSTER = fit_gbt(TRAIN, GbtConfig(rounds=1, max_depth=2))
RANGES = np.column_stack([TRAIN.matrix.min(axis=0), TRAIN.matrix.max(axis=0)])

# a valid instance of each class with a shaped field
VALID = {
    LogisticModel: lambda: fit_logreg(TRAIN),
    GaussianNBModel: lambda: fit_gnb(TRAIN),
    FlatTree: lambda: FlatTree(TREE.feature, TREE.threshold, TREE.left, TREE.right),
    TreeModel: lambda: TREE,
    RegressionTree: lambda: BOOSTER.trees[0],
    BoostedEnsemble: lambda: BOOSTER,
    ProjectionLDA: lambda: fit_lda(TRAIN),
    LimeExplanation: lambda: lime_explain(BOOSTER, TRAIN, TRAIN.matrix[0], 1, LimeConfig(n_samples=50)),
    MorrisScreening: lambda: morris_screen(BOOSTER, RANGES, 1, MorrisConfig(n_trajectories=2)),
}
RESHAPES = {
    "one_row_more": lambda a: np.concatenate([a, a[-1:]]),
    "one_row_fewer": lambda a: a[:-1],
    "extra_axis": lambda a: a[..., None],
}


def test_every_class_with_a_shaped_field_has_a_valid_instance():
    assert set(VALID) == {cls for cls in CLASSES if _shaped_fields(cls)}


def test_every_array_field_declares_its_shape():
    """A tuple of arrays (``Mlp``'s layers) is not an array field."""
    bare = [
        f"{cls.__name__}.{name}"
        for cls in CLASSES
        for name, hint in field_types(cls).items()
        if _bare(hint) is np.ndarray and _shape(hint) is None
    ]
    assert bare == []


def test_only_the_mlp_counts_its_features_from_its_arrays():
    classifiers = [cls for cls in CLASSES if issubclass(cls, Classifier)]
    assert len(classifiers) >= 8
    assert [cls for cls in classifiers if cls.n_features is not Classifier.n_features] == [Mlp]


def _refuser(cls, name: str, how: str) -> str | None:
    """The field whose check refuses field `name` changed `how`: the field
    itself, unless a row change moves a free size that this field meets
    first; then the next field with that size, if any."""
    shaped = _shaped_fields(cls)
    at = [n for n, _ in shaped].index(name)
    first = shaped[at][1].dims[0]
    fields = {f.name for f in dataclasses.fields(cls)}
    given = {dim for dim, field in (("d", "feature_names"), ("C", "n_classes")) if field in fields}
    if how == "extra_axis" or type(first) is int or first in given or any(first in s.dims for _, s in shaped[:at]):
        return name
    return next((n for n, s in shaped[at + 1 :] if first in s.dims), None)


CASES = [(cls, name, how) for cls in VALID for name, _ in _shaped_fields(cls) for how in RESHAPES]


@pytest.mark.parametrize("cls, name, how", CASES, ids=[f"{c.__name__}.{n}-{h}" for c, n, h in CASES])
def test_a_misshapen_array_is_refused_naming_its_field(cls, name, how):
    base = VALID[cls]()
    changed = RESHAPES[how](getattr(base, name))
    refuser = _refuser(cls, name, how)
    if refuser is None:  # a size only this field has
        assert getattr(dataclasses.replace(base, **{name: changed}), name) is changed
        return
    with pytest.raises(DataError) as refused:
        dataclasses.replace(base, **{name: changed})
    assert str(refused.value).startswith(f"{refuser}: shape ")


def test_the_free_sizes_are_few():
    """Most row changes are refused by the changed field itself."""
    moved = {(c.__name__, n) for c, n, h in CASES if _refuser(c, n, h) != n}
    assert moved == {
        ("LogisticModel", "loss_history"),
        ("GaussianNBModel", "means"),
        ("FlatTree", "feature"),
        ("TreeModel", "feature"),
        ("RegressionTree", "feature"),
        ("ProjectionLDA", "class_means"),
    }


def test_a_shape_names_its_dims_and_their_sizes():
    sizes = {"d": 13}
    assert Shape("d", "m").fault(np.zeros((13, 2)), sizes) is None
    assert sizes == {"d": 13, "m": 2}
    assert Shape("m").fault(np.zeros(3), sizes) == "shape (3,) must be (m,) = (2,)"
    assert Shape("d", 2).fault(np.zeros((13, 3)), sizes) == "shape (13, 3) must be (d, 2) = (13, 2)"
    assert Shape("nodes").fault(np.zeros((5, 1)), {}) == "shape (5, 1) must be (nodes,)"


def test_a_range_bounds_every_value_of_an_array():
    assert Range(0, 1).fault(np.array([[0.0, 1.0], [0.5, 0.25]])) is None
    assert Range(0, 1).fault(np.array([0.5, -0.5, 2.0])) == "must be in [0, 1], got -0.5"
    assert Range(0, 1).fault(np.array([0.5, np.nan])) == "expected a finite number"
    assert Range(0, open_low=True).fault(np.zeros(2)) == "must be > 0, got 0.0"
