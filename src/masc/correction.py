"""Anomaly-triggered intervention through a dedicated correction agent.

When a step is flagged, the correction agent receives the query, the
conversation history, and the flagged output inside a fixed reflection
prompt, and must answer with a JSON object:

    {"correction_needed": "Yes" or "No", "final_response": "..."}

Protocol rules implemented here, for the one step a request names:

* "No" forces the final response back to the original flagged output, no
  matter what the payload says.
* Unparseable or incomplete replies, and a "Yes" whose final response breaks
  the rule a trace ``Step`` applies to an output (a non-empty string with no
  lone surrogate), fall back to the original output and log a protocol
  violation; a broken corrector must never corrupt the trajectory.
* A corrector that raises, a remote one's transport failure included, fails
  open: the original output survives and the failure is reported in the
  outcome.

Which steps reach the corrector is the run loop's decision, not this
module's (see ``simulator``).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import Callable, Iterable, Protocol

from .errors import TraceValidationError
from .trace import _check_text

logger = logging.getLogger(__name__)

PROMPT_TEMPLATE = """You are an AI agent playing the role of "{role}".
You previously generated a response during a multi-agent reasoning process,
but an anomaly detector flagged your output as potentially incorrect.
Your task is to carefully reflect on whether your earlier response was indeed
wrong given the original query and the current context.

Please follow these rules strictly:
1. Re-examine the original query and your earlier response in the context of your role.
2. If after reflection you believe your previous response is correct and does not require modification, explicitly state that no correction is needed.
3. If you identify errors or find a better answer, provide a corrected response.
4. Always output in the fixed JSON format below. Do not add extra explanations outside the JSON.

Output format:
{{
  "correction_needed": "Yes" or "No",
  "final_response": "If correction_needed=No, repeat your original response here. If Yes, provide the corrected response."
}}

Input Information:
- Query: {query}
- Your Previous Response: {flagged_output}
- Context (previous steps if available):
{context}"""


@dataclass(frozen=True)
class CorrectionRequest:
    """Everything the correction agent sees about a flagged step."""

    role: str
    query: str
    history: tuple[tuple[str, str], ...]  # (role, output) for steps 1..t-1
    flagged_output: str
    t: int  # the flagged step's 1-based index


@dataclass(frozen=True)
class CorrectionResult:
    correction_needed: bool
    final_response: str
    raw: str
    protocol_violation: bool = False


@dataclass
class CorrectionOutcome:
    """What happened at one step: the surviving output plus bookkeeping."""

    output: str
    replaced: bool = False
    failed: bool = False
    result: CorrectionResult | None = None


def render_transcript(pairs: Iterable[tuple[str, str]]) -> str:
    """One ``[role] output`` line per (role, output) pair; ``(none)`` if none."""
    return "\n".join(f"[{role}] {output}" for role, output in pairs) or "(none)"


def build_correction_prompt(req: CorrectionRequest) -> str:
    """Render the canonical recovery prompt, byte-deterministic."""
    return PROMPT_TEMPLATE.format(
        role=req.role,
        query=req.query,
        flagged_output=req.flagged_output,
        context=render_transcript(req.history),
    )


_DECODER = json.JSONDecoder()


def _first_json_object(text: str) -> dict | None:
    """Extract the first top-level JSON object embedded in free text: the
    first ``{`` at which a whole object decodes."""
    start = text.find("{")
    while start != -1:
        try:
            return _DECODER.raw_decode(text, start)[0]
        except json.JSONDecodeError:
            start = text.find("{", start + 1)
    return None


def parse_correction_response(raw: str, original: str) -> CorrectionResult:
    """Interpret the agent's reply under the recovery protocol.

    "No" (or any fallback) pins final_response to the original output; only
    an explicit "Yes" with a textual final_response replaces it.
    """
    obj = _first_json_object(raw)
    if obj is None or "correction_needed" not in obj or "final_response" not in obj:
        violation = f"unparseable reply {raw!r:.80}"
    else:
        needed, final = obj["correction_needed"], obj["final_response"]
        if isinstance(needed, str) and needed.strip().lower() in ("yes", "no"):
            needed = needed.strip().lower() == "yes"
        if not isinstance(needed, bool):
            violation = f"correction_needed={needed!r}"
        elif not needed:
            return CorrectionResult(correction_needed=False, final_response=original, raw=raw)
        else:
            try:
                _check_text(final, "final_response")
                return CorrectionResult(correction_needed=True, final_response=final, raw=raw)
            except TraceValidationError as exc:
                violation = f"{exc}: {final!r:.80}"
    logger.warning("correction protocol violation: %s", violation)
    return CorrectionResult(
        correction_needed=False, final_response=original, raw=raw, protocol_violation=True
    )


# -- policies -----------------------------------------------------------------


class CorrectionPolicy(Protocol):
    """A correction agent: answers the recovery prompt for one flagged step."""

    def reply(self, req: CorrectionRequest, prompt: str) -> str: ...


PolicyFn = Callable[[CorrectionRequest, str], str]


class ScriptedPolicy:
    """Function-driven corrector for tests and fixtures."""

    def __init__(self, script: PolicyFn):
        self._script = script

    def reply(self, req: CorrectionRequest, prompt: str) -> str:
        return self._script(req, prompt)


def apply_correction(policy: CorrectionPolicy, req: CorrectionRequest) -> CorrectionOutcome:
    """Ask the corrector once about the flagged step and return the surviving
    output for it. The corrector's failure keeps the original output
    (fail-open) and marks the outcome failed.
    """
    prompt = build_correction_prompt(req)
    try:
        raw = policy.reply(req, prompt)
    except Exception as exc:  # fail-open: the detector is advisory
        logger.warning("correction agent failed; keeping original output: %s", exc)
        return CorrectionOutcome(output=req.flagged_output, failed=True)
    result = parse_correction_response(raw, req.flagged_output)
    return CorrectionOutcome(
        output=result.final_response,
        replaced=result.final_response != req.flagged_output,
        result=result,
    )
