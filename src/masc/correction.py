"""Anomaly-triggered intervention through a dedicated correction agent.

When a step is flagged, the correction agent receives the query, the
conversation history, and the flagged output inside a fixed reflection
prompt, and must answer with a JSON object:

    {"correction_needed": "Yes" or "No", "final_response": "..."}

Protocol rules implemented here:

* "No" forces the final response back to the original flagged output, no
  matter what the payload says.
* Unparseable or incomplete replies fall back to the original output and log
  a protocol violation; a broken corrector must never corrupt the trajectory.
* The corrector is invoked only for flagged steps, once per step; corrected
  outputs are not re-scored.
* Remote transport failure is fail-open: the original output survives and
  the failure is reported in the outcome.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import Callable, Iterable, Protocol

from .detector import AnomalyVerdict
from .transport import chat, new_session

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
    t: int = 0  # the flagged step's 1-based index; 0 when not known


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
    invoked: bool = False
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
        elif not isinstance(final, str):
            violation = f"final_response={final!r}"
        else:
            return CorrectionResult(correction_needed=True, final_response=final, raw=raw)
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
    """Table- or function-driven corrector for tests and fixtures."""

    def __init__(self, script: dict[str, str] | PolicyFn):
        self._script = script
        self.calls = 0

    def reply(self, req: CorrectionRequest, prompt: str) -> str:
        self.calls += 1
        if callable(self._script):
            return self._script(req, prompt)
        reply = self._script.get(req.flagged_output)
        if reply is None:
            return json.dumps({"correction_needed": "No", "final_response": ""})
        return reply


class RemoteChatPolicy:
    """Correction agent behind the POST {endpoint}/chat contract."""

    def __init__(self, endpoint: str, model_name: str):
        self.endpoint = endpoint
        self.model_name = model_name
        self._session = new_session()
        self.calls = 0

    def reply(self, req: CorrectionRequest, prompt: str) -> str:
        self.calls += 1
        return chat(self._session, self.endpoint, self.model_name, prompt)


def apply_correction(
    policy: CorrectionPolicy, verdict: AnomalyVerdict, req: CorrectionRequest
) -> CorrectionOutcome:
    """Gate on the verdict and return the surviving output for step t.

    Unflagged steps pass through untouched with zero policy calls. Flagged
    steps go through the corrector once; its failure keeps the original
    output (fail-open) and marks the outcome failed.
    """
    if not verdict.flagged:
        return CorrectionOutcome(output=req.flagged_output)
    prompt = build_correction_prompt(req)
    try:
        raw = policy.reply(req, prompt)
    except Exception as exc:  # fail-open: the detector is advisory
        logger.warning("correction agent failed; keeping original output: %s", exc)
        return CorrectionOutcome(
            output=req.flagged_output, invoked=True, failed=True
        )
    result = parse_correction_response(raw, req.flagged_output)
    return CorrectionOutcome(
        output=result.final_response,
        invoked=True,
        replaced=result.final_response != req.flagged_output,
        result=result,
    )
