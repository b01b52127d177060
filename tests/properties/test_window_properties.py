"""Property-based tests of window bookkeeping.

The models' incremental aggregates must agree with brute-force
recomputation from the window contents under *any* operation sequence —
pushes, flushes, anchoring with either policy, growth mode — and a bulk
``_load`` of both windows must leave the state the element-by-element
adds leave.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core.config import AnchorPolicy, ResizePolicy
from repro.core.extensions import AsymmetricWeightedModel, JaccardSetModel
from repro.core.models import UnweightedSetModel, WeightedSetModel

elements = st.integers(min_value=0, max_value=9)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.lists(elements, min_size=1, max_size=8)),
        st.tuples(st.just("clear"), st.lists(elements, min_size=0, max_size=5)),
        st.tuples(
            st.just("anchor"),
            st.tuples(
                st.sampled_from(list(AnchorPolicy)),
                st.sampled_from(list(ResizePolicy)),
                st.booleans(),
            ),
        ),
    ),
    min_size=1,
    max_size=40,
)


def apply_operations(model, ops):
    for name, payload in ops:
        if name == "push":
            model.push(payload)
        elif name == "clear":
            model.clear_and_seed(payload)
        else:
            anchor, resize, adaptive = payload
            if model.tw_length or model.cw_length:
                model.anchor_and_resize(anchor, resize, adaptive)


def check_counts(model):
    assert dict(Counter(model._cw)) == model.cw_counts
    assert dict(Counter(model._tw)) == model.tw_counts


@settings(max_examples=200, deadline=None)
@given(cw=st.integers(1, 6), tw=st.integers(1, 8), ops=operations)
def test_counts_match_buffers(cw, tw, ops):
    model = UnweightedSetModel(cw, tw)
    apply_operations(model, ops)
    check_counts(model)


@settings(max_examples=200, deadline=None)
@given(cw=st.integers(1, 6), tw=st.integers(1, 8), ops=operations)
def test_unweighted_aggregates_match_bruteforce(cw, tw, ops):
    model = UnweightedSetModel(cw, tw)
    apply_operations(model, ops)
    check_counts(model)
    distinct_cw = len(model.cw_counts)
    shared = sum(1 for e in model.cw_counts if e in model.tw_counts)
    expected = shared / distinct_cw if distinct_cw else 0.0
    assert model.similarity() == expected


@settings(max_examples=150, deadline=None)
@given(cw=st.integers(1, 6), tw=st.integers(1, 8), ops=operations)
def test_weighted_similarity_matches_bruteforce(cw, tw, ops):
    model = WeightedSetModel(cw, tw)
    apply_operations(model, ops)
    check_counts(model)
    n, m = model.cw_length, model.tw_length
    if n == 0 or m == 0:
        assert model.similarity() == 0.0
        return
    expected = sum(
        min(count / n, model.tw_counts.get(e, 0) / m)
        for e, count in model.cw_counts.items()
    )
    assert abs(model.similarity() - expected) < 1e-12


@settings(max_examples=150, deadline=None)
@given(cw=st.integers(1, 6), tw=st.integers(1, 8), ops=operations)
def test_jaccard_aggregates_match_bruteforce(cw, tw, ops):
    model = JaccardSetModel(cw, tw)
    apply_operations(model, ops)
    union = set(model.cw_counts) | set(model.tw_counts)
    shared = set(model.cw_counts) & set(model.tw_counts)
    expected = len(shared) / len(union) if union else 0.0
    assert model.similarity() == expected


@settings(max_examples=100, deadline=None)
@given(cw=st.integers(1, 6), tw=st.integers(1, 8), ops=operations)
def test_window_geometry_invariants(cw, tw, ops):
    model = UnweightedSetModel(cw, tw)
    apply_operations(model, ops)
    # The CW never exceeds its capacity; the TW only when growing.
    assert model.cw_length <= cw
    if not model.growing:
        assert model.tw_length <= tw


@settings(max_examples=100, deadline=None)
@given(
    trailing=st.lists(elements, min_size=4, max_size=10),
    current=st.lists(elements, min_size=2, max_size=6),
    anchor=st.sampled_from(list(AnchorPolicy)),
)
def test_anchor_index_definition(trailing, current, anchor):
    """RN/LNN anchor positions match their prose definitions."""
    cw, tw = len(current), len(trailing)
    model = UnweightedSetModel(cw, tw)
    model.push(trailing + current)
    if list(model._tw) != trailing:
        return  # overlap shifted the windows; definition checked below anyway
    noisy = [i for i, e in enumerate(trailing) if e not in set(current)]
    index = model.anchor_index(anchor)
    if anchor is AnchorPolicy.RN:
        assert index == (noisy[-1] + 1 if noisy else 0)
    else:
        non_noisy = [i for i in range(len(trailing)) if i not in noisy]
        assert index == (non_noisy[0] if non_noisy else len(trailing))


MODELS = [UnweightedSetModel, WeightedSetModel, JaccardSetModel, AsymmetricWeightedModel]
AGGREGATES = ("_distinct_cw", "_distinct_tw", "_shared")


def model_state(model):
    return (
        list(model._tw),
        list(model._cw),
        list(model.tw_counts.items()),
        list(model.cw_counts.items()),
        [getattr(model, name, None) for name in AGGREGATES],
        model.similarity(),
    )


@settings(max_examples=150, deadline=None)
@given(
    model_cls=st.sampled_from(MODELS),
    cw=st.integers(1, 6),
    tw=st.integers(1, 8),
    trailing=st.lists(elements, max_size=12),
    current=st.lists(elements, max_size=6),
    ops=operations,
)
def test_load_matches_element_adds(model_cls, cw, tw, trailing, current, ops):
    """Counts in the same insertion order, the same aggregates, and the
    same similarity — now and after any further operations."""
    loaded = model_cls(cw, tw)
    loaded._load(trailing, current)
    replayed = model_cls(cw, tw)
    for element in trailing:
        replayed._tw_add(element)
    for element in current:
        replayed._cw_add(element)
    assert model_state(loaded) == model_state(replayed)
    apply_operations(loaded, ops)
    apply_operations(replayed, ops)
    assert model_state(loaded) == model_state(replayed)
