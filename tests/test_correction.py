import json
import logging

import pytest
from hypothesis import given
from hypothesis import strategies as st

from masc.correction import (
    CorrectionRequest,
    ScriptedPolicy,
    _first_json_object,
    apply_correction,
    build_correction_prompt,
    parse_correction_response,
    render_transcript,
)
from masc.detector import AnomalyVerdict
from tests.conftest import CountingPolicy


def req(history=((("planner", "made a plan"),)), output="the answer is 12"):
    return CorrectionRequest(
        role="solver",
        query="what is 7 + 5?",
        history=tuple(history),
        flagged_output=output,
    )


def scripted(correction_needed, final_response=""):
    """A policy that answers every request with the same protocol reply."""
    reply = json.dumps(
        {"correction_needed": correction_needed, "final_response": final_response}
    )
    return CountingPolicy(lambda _req, _prompt: reply)


def verdict(flagged, score=2.0, delta=1.0):
    return AnomalyVerdict(
        score=score, recon_term=score, proto_term=0.0, alpha=1.0, beta=0.0,
        delta=delta, flagged=flagged, t=2,
    )


class TestPrompt:
    def test_deterministic_bytes(self):
        r = req()
        assert build_correction_prompt(r) == build_correction_prompt(r)

    def test_contains_protocol_key(self):
        assert '"correction_needed"' in build_correction_prompt(req())

    def test_fields_are_rendered(self):
        text = build_correction_prompt(req())
        assert 'role of "solver"' in text
        assert "what is 7 + 5?" in text
        assert "the answer is 12" in text
        assert "[planner] made a plan" in text

    def test_empty_history_renders_none_marker(self):
        text = build_correction_prompt(req(history=()))
        assert "(none)" in text

    def test_transcript_is_one_line_per_step(self):
        assert render_transcript([("a", "x y"), ("b", "")]) == "[a] x y\n[b] "
        assert render_transcript([]) == "(none)"


class TestParse:
    def test_no_forces_original(self):
        result = parse_correction_response(
            '{"correction_needed":"No","final_response":"x"}', original="y"
        )
        assert result.correction_needed is False
        assert result.final_response == "y"
        assert not result.protocol_violation

    def test_yes_takes_payload(self):
        result = parse_correction_response(
            '{"correction_needed":"Yes","final_response":"z"}', original="y"
        )
        assert result.correction_needed is True
        assert result.final_response == "z"

    def test_case_insensitive(self):
        result = parse_correction_response(
            '{"correction_needed":"YES","final_response":"z"}', original="y"
        )
        assert result.correction_needed is True

    def test_garbage_falls_back(self, caplog):
        with caplog.at_level(logging.WARNING):
            result = parse_correction_response("garbage", original="orig")
        assert result.correction_needed is False
        assert result.final_response == "orig"
        assert result.protocol_violation
        assert any("violation" in r.message for r in caplog.records)

    def test_missing_keys_fall_back(self):
        result = parse_correction_response('{"correction_needed":"Yes"}', "orig")
        assert result.protocol_violation
        assert result.final_response == "orig"

    def test_json_embedded_in_prose(self):
        raw = 'Sure! Here is my reflection:\n{"correction_needed": "Yes", "final_response": "fixed"}\nThanks.'
        result = parse_correction_response(raw, "orig")
        assert result.final_response == "fixed"

    def test_nested_braces_in_strings(self):
        raw = '{"correction_needed": "Yes", "final_response": "use {x} and {y}"}'
        assert parse_correction_response(raw, "o").final_response == "use {x} and {y}"

    @given(
        obj=st.dictionaries(
            st.text(),
            st.recursive(
                st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
                lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
                max_leaves=10,
            ),
        ),
        before=st.text(st.characters(exclude_characters="{}")),
        after=st.text(st.characters(exclude_characters="{}")),
        indent=st.sampled_from([None, 2]),
    )
    def test_object_in_brace_free_text_is_found(self, obj, before, after, indent):
        text = before + json.dumps(obj, indent=indent) + after
        assert _first_json_object(text) == obj

    def test_boolean_values_accepted(self):
        raw = '{"correction_needed": false, "final_response": "whatever"}'
        result = parse_correction_response(raw, "orig")
        assert result.final_response == "orig"

    @pytest.mark.parametrize("bad", ["", "x \ud800 y"], ids=["empty", "lone surrogate"])
    def test_a_final_response_no_step_can_hold_falls_back(self, bad):
        raw = json.dumps({"correction_needed": "Yes", "final_response": bad})
        result = parse_correction_response(raw, "orig")
        assert result.protocol_violation
        assert result.final_response == "orig"
        outcome = apply_correction(scripted("Yes", bad), verdict(True), req())
        assert outcome.output == "the answer is 12"
        assert outcome.invoked and not outcome.replaced

    def test_non_string_final_response_falls_back(self):
        raw = '{"correction_needed": "Yes", "final_response": 5}'
        result = parse_correction_response(raw, "orig")
        assert result.protocol_violation
        assert result.final_response == "orig"


class TestApply:
    def test_unflagged_passes_through_without_calls(self):
        policy = scripted("No")
        outcome = apply_correction(policy, verdict(False), req())
        assert outcome.output == "the answer is 12"
        assert outcome.invoked is False
        assert policy.calls == 0

    def test_flagged_scripted_replacement(self):
        policy = scripted("Yes", "fixed")
        outcome = apply_correction(policy, verdict(True), req())
        assert outcome.output == "fixed"
        assert outcome.invoked and outcome.replaced
        assert policy.calls == 1

    def test_flagged_but_agent_says_no_keeps_original(self):
        policy = scripted("No", "ignored")
        outcome = apply_correction(policy, verdict(True), req())
        assert outcome.output == "the answer is 12"
        assert outcome.invoked and not outcome.replaced

    def test_policy_exception_fails_open(self, caplog):
        def boom(_req, _prompt):
            raise ConnectionError("socket dead")

        policy = ScriptedPolicy(boom)
        with caplog.at_level(logging.WARNING):
            outcome = apply_correction(policy, verdict(True), req())
        assert outcome.output == "the answer is 12"
        assert outcome.failed
        assert any("keeping original" in r.message for r in caplog.records)

    def test_gating_call_count_matches_flag_count(self):
        policy = scripted("No")
        flags = [True, False, True, True, False]
        for f in flags:
            apply_correction(policy, verdict(f), req())
        assert policy.calls == sum(flags)
