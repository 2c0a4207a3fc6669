"""References for the batched and in-loop paths.

``hashing_embed_reference`` is the token-by-token hashing embedding and
``verdicts_reference`` the step-by-step scoring (one unthresholded verdict
per step, then the threshold applied with ``dataclasses.replace``) that the
batched versions in ``masc.embedding`` and ``masc.detector`` replaced.
``checker_reference`` is the fixture checker that scanned every visible
output forward, and ``auc_roc_reference`` the AUC that found each tie group
of the sorted scores in a loop. The replacements must equal them bit for
bit.

``continuation_reference`` gives the running sums a ``DetectorStream`` keeps
for each frozen-mixer block, built the long way: the unfolded f_h
projections, then each block's full causal context. The stream folds f_h
into block 1 and adds products in another order, so it matches to
rounding, not bit for bit.
"""

from __future__ import annotations

import hashlib
import logging
import re
from dataclasses import replace

import numpy as np

from masc.detector import AnomalyVerdict, causal_context, projected_steps
from masc.fixtures import CLAIM_PATTERN, _apply, _parse_task

logger = logging.getLogger("masc.detector")

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


def hashing_embed_reference(text: str, dim: int) -> np.ndarray:
    """One text: accumulate +/-1 per token into ``hash % dim``, L2-normalize."""
    v = np.zeros(dim, dtype=np.float64)
    key = dim.to_bytes(8, "little")
    for token in _TOKEN_SPLIT.split(text.lower()):
        if not token:
            continue
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8, key=key).digest()
        h = int.from_bytes(digest, "little")
        sign = 1.0 if (h >> 63) & 1 == 0 else -1.0
        v[h % dim] += sign
    norm = float(np.linalg.norm(v))
    if norm > 0.0:
        v /= norm
    return v


def _safe_cos(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        logger.warning("zero-norm vector in cosine; treating cos as 0")
        return 0.0
    return float(a @ b) / (na * nb)


def _unthresholded_verdict(x_hat, x, p, alpha, beta) -> AnomalyVerdict:
    recon_term = float(np.sum((x_hat - x) ** 2))
    proto_term = 1.0 - _safe_cos(x_hat, p)
    return AnomalyVerdict(
        score=alpha * recon_term + beta * proto_term,
        recon_term=recon_term,
        proto_term=proto_term,
        alpha=alpha,
        beta=beta,
    )


def verdicts_reference(x_hats, step_matrix, p, alpha, beta, delta, t0=1):
    """Thresholded verdicts for rows t0, t0 + 1, ... scored one at a time."""
    out = []
    for t, (x_hat, x) in enumerate(zip(x_hats, step_matrix), start=t0):
        v = _unthresholded_verdict(x_hat, x, p, alpha, beta)
        out.append(replace(v, delta=delta, flagged=bool(v.score > delta), t=t))
    return out


def continuation_reference(model, q_vec, steps):
    """Per frozen-mixer block, an (n + 1, hidden_dim) matrix whose row i is
    the block's running sum after the query and the first i steps: the sum
    of ``x_j @ M_top`` over the rows x_j the block has read, M_top being the
    half of its matrix that reads the causal mean."""
    params = model.params
    query = params["fq_w"] @ q_vec + params["fq_b"]
    x = np.concatenate([query[None, :], projected_steps(params, steps)])
    sums = []
    for matrix_t in model.encoder().matrices_t:
        k = matrix_t.shape[0] // 2
        context = causal_context(x)
        counts = np.arange(1, x.shape[0] + 1, dtype=np.float64)[:, None]
        sums.append((context[:, :k] * counts) @ matrix_t[:k])
        x = np.tanh(context @ matrix_t)
    return sums


def checker_reference(query, visible, t):
    """The fixture checker: repeats the last claim of all visible outputs."""
    claim = None
    for _, output in visible:
        for match in CLAIM_PATTERN.finditer(output):
            claim = match.group(1)
    if claim is not None:
        return f"checked claim {claim}. ANSWER: {claim}"
    a, op1, b, op2, c = _parse_task(query, visible)
    result = _apply(op2.lower(), _apply(op1.lower(), int(a), int(b)), int(c))
    return f"no claim visible; computed {result}. ANSWER: {result}"


def auc_roc_reference(scores, labels) -> float:
    """Mann-Whitney AUC, each tie group's midrank found by walking the
    stably sorted scores."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos, n_neg = int((labels == 1).sum()), int((labels == 0).sum())
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores), dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # midrank, 1-based
        i = j + 1
    u = float(ranks[labels == 1].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)
