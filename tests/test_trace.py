import json
import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from masc.errors import DataError, TraceParseError, TraceValidationError
from masc.trace import (
    DatasetSplit,
    Step,
    Trajectory,
    error_position_histogram,
    is_early_step,
    load_trajectories,
    parse_trajectory,
    save_trajectories,
    serialize_trajectory,
    split_dataset,
)


def make_traj(i, n_steps=3, label_at=None):
    steps = tuple(
        Step(role=f"agent-{t % 2}", output=f"out {i} {t}",
             label=(1 if t == label_at else 0) if label_at is not None else None)
        for t in range(1, n_steps + 1)
    )
    return Trajectory(id=f"traj-{i}", query=f"query {i}", steps=steps)


class TestParse:
    def test_minimal_line(self):
        t = parse_trajectory(b'{"id":"t1","query":"q","steps":[{"role":"solver","output":"42"}]}')
        assert len(t) == 1
        assert t.steps[0].role == "solver"
        assert t.steps[0].label is None
        assert t.gt_answer is None

    def test_empty_steps_rejected(self):
        with pytest.raises(TraceValidationError, match="empty steps"):
            parse_trajectory(b'{"id":"t2","query":"q","steps":[]}')

    def test_malformed_json_reports_byte_offset(self):
        with pytest.raises(TraceParseError) as err:
            parse_trajectory(b'{"id": "x", "query": }')
        assert err.value.byte_offset is not None
        assert "byte offset" in str(err.value)

    def test_non_utf8_byte_reports_its_offset(self):
        with pytest.raises(TraceParseError) as err:
            parse_trajectory(b'{"id":"x\xff","query":"q","steps":[]}')
        assert err.value.byte_offset == 8
        assert "UTF-8" in str(err.value)

    def test_key_order_does_not_matter(self):
        a = parse_trajectory(b'{"id":"x","query":"q","steps":[{"role":"r","output":"o"}]}')
        b = parse_trajectory(b'{"steps":[{"output":"o","role":"r"}],"query":"q","id":"x"}')
        assert a == b

    @pytest.mark.parametrize("line, field", [
        ('{"id":"\\ud800","query":"q","steps":[{"role":"r","output":"o"}]}', "id"),
        ('{"id":"x","query":"q\\udfff","steps":[{"role":"r","output":"o"}]}', "query"),
        ('{"id":"x","query":"q","gt_answer":"\\ud800","steps":[{"role":"r","output":"o"}]}',
         "gt_answer"),
        ('{"id":"x","query":"q","steps":[{"role":"r","output":"o"},'
         '{"role":"r\\ud800","output":"o"}]}', "step 2 role"),
        ('{"id":"x","query":"q","steps":[{"role":"r","output":"caf\\u00e9 \\udc00"}]}',
         "step 1 output"),
    ], ids=["id", "query", "gt_answer", "role", "output"])
    def test_lone_surrogate_escape_names_the_field(self, line, field):
        with pytest.raises(TraceValidationError, match=f"^{field} holds a lone surrogate"):
            parse_trajectory(line.encode())

    def test_surrogate_pair_escape_reserializes(self):
        t = parse_trajectory(b'{"id":"x","query":"q","steps":[{"role":"r","output":"\\ud83d\\ude00"}]}')
        assert t.steps[0].output == "\U0001f600"
        assert parse_trajectory(serialize_trajectory(t)) == t

    def test_label_must_be_binary(self):
        # true and 1.0 compare equal to 1 but would not re-serialize as 1.
        for label in ("2", "true", "false", "1.0", "0.0", '"1"'):
            line = '{"id":"x","query":"q","steps":[{"role":"r","output":"o","label":%s}]}'
            with pytest.raises(TraceValidationError):
                parse_trajectory(line % label)
        for label in (2, True, 1.0):
            with pytest.raises(TraceValidationError):
                Step(role="r", output="o", label=label)

    def test_unknown_keys_strict_vs_lenient(self, caplog):
        line = b'{"id":"x","query":"q","bonus":1,"steps":[{"role":"r","output":"o"}]}'
        with pytest.raises(TraceValidationError, match="unknown"):
            parse_trajectory(line, strict=True)
        with caplog.at_level(logging.WARNING):
            t = parse_trajectory(line, strict=False)
        assert t.id == "x"
        assert any("unknown" in r.message for r in caplog.records)

    def test_missing_required_key(self):
        with pytest.raises(TraceValidationError, match="missing required"):
            parse_trajectory(b'{"query":"q","steps":[{"role":"r","output":"o"}]}')


class TestSerialize:
    def test_single_line_with_trailing_newline(self):
        blob = serialize_trajectory(make_traj(0, n_steps=1))
        assert blob.endswith(b"\n")
        assert blob.count(b"\n") == 1

    def test_deterministic_bytes(self):
        t = make_traj(1)
        assert serialize_trajectory(t) == serialize_trajectory(t)

    def test_canonical_key_order(self):
        keys = list(json.loads(serialize_trajectory(make_traj(2))).keys())
        assert keys == ["id", "query", "gt_answer", "steps"]


step_texts = st.text(min_size=1, max_size=20)


@st.composite
def trajectories(draw):
    steps = tuple(
        Step(
            role=draw(step_texts),
            output=draw(step_texts),
            label=draw(st.sampled_from([None, 0, 1])),
        )
        for _ in range(draw(st.integers(1, 5)))
    )
    return Trajectory(
        id=draw(step_texts),
        query=draw(step_texts),
        steps=steps,
        gt_answer=draw(st.one_of(st.none(), step_texts)),
    )


@given(trajectories())
@settings(max_examples=200, deadline=None)
def test_roundtrip_property(t):
    assert parse_trajectory(serialize_trajectory(t)) == t


@given(trajectories())
@settings(max_examples=50, deadline=None)
def test_serialize_is_canonical_form(t):
    # re-serializing a parsed line reproduces the canonical bytes exactly
    blob = serialize_trajectory(t)
    assert serialize_trajectory(parse_trajectory(blob)) == blob


# Any JSON value; strings may hold lone surrogates, which json.dumps escapes.
any_text = st.text(
    st.characters(exclude_categories=()) | st.characters(categories=["Cs"]), max_size=6
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats() | any_text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(any_text, inner, max_size=3),
    max_leaves=6,
)
values = any_text | st.sampled_from([0, 1]) | json_values


@given(trajectories(), st.data(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_any_field_value_gives_a_trajectory_or_a_data_error(t, data, strict):
    """One field of a valid line replaced by any JSON value."""
    obj = json.loads(serialize_trajectory(t))
    target = data.draw(st.sampled_from([obj, *obj["steps"]]))
    target[data.draw(st.sampled_from(sorted(target)))] = data.draw(values)
    try:
        parsed = parse_trajectory(json.dumps(obj).encode(), strict=strict)
    except DataError:
        return
    blob = serialize_trajectory(parsed)
    assert parse_trajectory(blob) == parsed
    assert serialize_trajectory(parse_trajectory(blob)) == blob


anything = values | st.binary(max_size=3) | st.builds(object) | st.lists(
    st.just(Step("r", "o")), max_size=2
)


@given(trajectories(), st.sampled_from(["id", "query", "gt_answer", "steps", "role",
                                        "output", "label"]), anything)
@settings(max_examples=300, deadline=None)
def test_records_from_any_values_raise_or_serialize(t, field, value):
    try:
        if field in ("role", "output", "label"):
            t = replace(t, steps=(replace(t.steps[0], **{field: value}), *t.steps[1:]))
        else:
            t = replace(t, **{field: value})
    except TraceValidationError:
        return
    assert parse_trajectory(serialize_trajectory(t)) == t


class TestFiles:
    def test_save_load_roundtrip(self, tmp_path):
        trajectories = [make_traj(i) for i in range(5)]
        path = tmp_path / "traces.jsonl"
        save_trajectories(str(path), trajectories)
        assert load_trajectories(str(path)) == trajectories

    def test_load_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(serialize_trajectory(make_traj(0)) + b"{broken\n")
        with pytest.raises(DataError, match=":2:"):
            load_trajectories(str(path))

    def test_non_utf8_line_keeps_type_and_offset(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(
            serialize_trajectory(make_traj(0))
            + b'{"id":"caf\xe9","query":"q","steps":[{"role":"r","output":"o"}]}\n'
        )
        with pytest.raises(TraceParseError) as err:
            load_trajectories(str(path))
        assert err.value.byte_offset == 10
        assert str(err.value) == (
            f"{path}:2: invalid UTF-8: invalid continuation byte (byte offset 10)"
        )

    def test_malformed_json_line_keeps_type_and_offset(self, tmp_path):
        line = b'{"id": "x", "query": }'
        with pytest.raises(TraceParseError) as direct:
            parse_trajectory(line)
        path = tmp_path / "broken.jsonl"
        path.write_bytes(serialize_trajectory(make_traj(0)) + line + b"\n")
        with pytest.raises(TraceParseError) as err:
            load_trajectories(str(path))
        assert err.value.byte_offset == direct.value.byte_offset == 21
        assert str(err.value) == f"{path}:2: {direct.value}"

    def test_validation_error_keeps_its_type(self, tmp_path):
        path = tmp_path / "empty_steps.jsonl"
        path.write_bytes(b'\n{"id":"x","query":"q","steps":[]}\n')
        with pytest.raises(TraceValidationError, match=r":2: empty steps$"):
            load_trajectories(str(path))

    def test_repeated_trajectory_id_names_both_lines(self, tmp_path):
        path = tmp_path / "repeated.jsonl"
        save_trajectories(str(path), [make_traj(0), make_traj(1), make_traj(0)])
        with pytest.raises(
            TraceValidationError, match=r":3: trajectory id repeats 'traj-0' of line 1$"
        ):
            load_trajectories(str(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_bytes(serialize_trajectory(make_traj(0)) + b"\n" +
                         serialize_trajectory(make_traj(1)))
        assert len(load_trajectories(str(path))) == 2


class TestSplit:
    def test_paper_ratio_20_80(self):
        split = split_dataset([make_traj(i) for i in range(10)], ratio=0.2, seed=7)
        assert len(split.train) == 2
        assert len(split.test) == 8

    def test_two_items_half(self):
        split = split_dataset([make_traj(i) for i in range(2)], ratio=0.5, seed=0)
        assert len(split.train) == 1
        assert len(split.test) == 1

    def test_same_seed_same_split(self):
        data = [make_traj(i) for i in range(20)]
        a = split_dataset(data, ratio=0.3, seed=42)
        b = split_dataset(data, ratio=0.3, seed=42)
        assert [t.id for t in a.train] == [t.id for t in b.train]

    def test_partition_property(self):
        data = [make_traj(i) for i in range(17)]
        split = split_dataset(data, ratio=0.25, seed=5)
        train_ids = {t.id for t in split.train}
        test_ids = {t.id for t in split.test}
        assert not train_ids & test_ids
        assert train_ids | test_ids == {t.id for t in data}
        assert len(split.train) == round(0.25 * 17)

    def test_different_seeds_differ(self):
        data = [make_traj(i) for i in range(30)]
        a = split_dataset(data, ratio=0.5, seed=1)
        b = split_dataset(data, ratio=0.5, seed=2)
        assert [t.id for t in a.train] != [t.id for t in b.train]

    def test_too_few_items(self):
        with pytest.raises(DataError, match="cannot split"):
            split_dataset([make_traj(0)], ratio=0.5, seed=0)

    def test_bad_ratio(self):
        with pytest.raises(DataError):
            split_dataset([make_traj(i) for i in range(4)], ratio=1.0, seed=0)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(TraceValidationError, match="duplicate"):
            split_dataset([make_traj(0), make_traj(0)], ratio=0.5, seed=0)


class TestErrorHistogram:
    def test_first_step_lands_in_bin_zero(self):
        t = make_traj(0, n_steps=10, label_at=1)
        assert error_position_histogram([t], bins=5) == [1, 0, 0, 0, 0]

    def test_last_step_lands_in_last_bin(self):
        t = make_traj(0, n_steps=10, label_at=10)
        assert error_position_histogram([t], bins=5) == [0, 0, 0, 0, 1]

    def test_counts_sum_to_labeled_steps(self):
        data = [make_traj(i, n_steps=6, label_at=(i % 6) + 1) for i in range(30)]
        counts = error_position_histogram(data, bins=4)
        assert sum(counts) == 30

    def test_no_labels_is_an_error(self):
        with pytest.raises(DataError, match="no labels"):
            error_position_histogram([make_traj(0)], bins=3)

    def test_uniform_positions_give_flat_histogram(self):
        # oracle: generate 1000 errors placed uniformly; chi^2 GOF should not
        # reject flatness at alpha=0.01
        rng = np.random.RandomState(123)
        T, bins = 20, 5
        data = [
            make_traj(i, n_steps=T, label_at=int(rng.randint(1, T + 1)))
            for i in range(1000)
        ]
        counts = error_position_histogram(data, bins=bins)
        _, p_value = stats.chisquare(counts)
        assert p_value > 0.01


def test_early_step_convention_matches_histogram_bin_zero():
    T, bins = 6, 5
    for t in range(1, T + 1):
        in_bin_zero = int((t - 1) / T * bins) == 0
        assert is_early_step(t, T) == in_bin_zero
