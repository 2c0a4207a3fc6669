"""History-conditioned step anomaly detector.

The model predicts the embedding of the next step from the task query and the
interaction history, then scores the realized step by how badly it was
predicted and how far the prediction sits from a learnable prototype of
normal behavior:

    score(t) = alpha * ||x_hat_t - x_t||^2 + beta * (1 - cos(x_hat_t, p))

Pipeline per step t:

1. The query embedding q and each historical step embedding h_j are mapped
   into a shared hidden dimension by trainable linear layers f_q and f_h.
2. The projected sequence [q~, h~_1 .. h~_{t-1}] runs through a frozen,
   seeded backbone; the final position's hidden state is mapped by a
   trainable linear head f_theta back to the step-embedding dimension
   d = 2 * d_e, giving the prediction x_hat_t. The realized embedding is
   x_t := h_t.
3. A prototype vector p (query) attends over the trajectory's predictions
   (keys/values) through trainable d x d maps W_q, W_k, W_v, scaled by
   sqrt(d). During training the attention output both feeds the prototype
   alignment loss and overwrites the stored p; at inference p is frozen.

The in-process backbone (``frozen_mixer``) is a stack of seeded, fixed
blocks: causal mean over the sequence prefix concatenated with the current
position, a fixed random linear map, then tanh. It is deterministic,
order-sensitive, and strictly causal, so scoring a full trajectory in one
pass gives the same verdicts as scoring each prefix separately, to rounding:
a one-row product takes BLAS's matrix-vector path, so the two can differ in
the last bit. The other backbone (``remote_llm``) asks a service for a real
frozen model's hidden states.

Both backbones, ``FrozenMixer`` and ``RemoteBackbone``, give the same three
names, and the detector calls them without asking which one it holds:
``run`` encodes a sequence, ``backward`` returns the gradient with respect
to it (zeros for the service's states), and the nested ``Stream`` reads one
pushed step at a time and gives the hidden state after it.
``DetectorModel.encoder`` is the one place that picks the backbone.

Two ways to score:

- ``score_trajectory``: every step of a recorded trajectory in one batched
  pass (the backbone's ``run``); ``train`` runs the same pass and
  ``trajectory_loss`` adds the one backward pass, a hand-written reverse
  sweep over the forward's intermediates (losses, attention, head,
  backbone, projections). ``score_corpus`` scores many trajectories the
  same way, with the backbone's rows of several trajectories stacked into
  one pass per chunk; calibration, ``masc score`` and ``masc eval`` use it.
- ``DetectorStream``: in-loop detection. ``score`` judges the pending step
  without changing state; ``commit`` pushes the kept step into the
  backbone's ``Stream``, which for the frozen mixer costs the same however
  long the history. ``FrozenMixer.Stream`` describes how, and
  ``DetectorStream`` why the model's parameters must not change while a
  stream is open.

Both, and every record that holds the settings alpha, beta and delta, check
them by one rule, ``check_score_settings``.
"""

from __future__ import annotations

import hashlib
import logging
import math
import sys
import weakref
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field

import numpy as np

from .embedding import EmbedderSpec, embed_trajectories
from .errors import ConfigError, DataError, DivergenceError, check_int, check_number
from .trace import Trajectory
from .transport import float_vectors, new_session, post_json

logger = logging.getLogger(__name__)

SEED_MAX = 2**32 - 1  # numpy's RandomState takes seeds in [0, 2**32 - 1]
# No payload shape depends on the frozen mixer's depth, so without a bound a
# checkpoint header could ask for any number of blocks.
LAYERS_MAX = 64

PARAM_ORDER = (
    "fq_w", "fq_b", "fh_w", "fh_b", "ft_w", "ft_b", "wq", "wk", "wv", "p",
)


class FlatParams(Mapping[str, np.ndarray]):
    """Named, reshaped views into one contiguous float64 vector, ``flat``.

    The parameters, their gradients and the Adam moments share this layout,
    so an optimizer step is a few elementwise passes over it, which
    ``optim.adam_step`` makes block by block. Writing through a view
    (``params["p"][...] = x``) writes into ``flat``. There is no
    ``__setitem__``: rebinding a name would silently detach its view from
    the buffer, so ``params["p"] = x`` raises TypeError.
    """

    __slots__ = ("_flat", "_views")

    def __init__(
        self, shapes: Mapping[str, tuple[int, ...]], flat: np.ndarray | None = None
    ):
        sizes = [math.prod(shape) for shape in shapes.values()]
        if flat is None:
            flat = np.zeros(sum(sizes))
        if flat.dtype != np.float64 or flat.shape != (sum(sizes),) or not flat.flags.c_contiguous:
            raise ValueError(
                f"flat buffer must be a contiguous float64 vector of {sum(sizes)} entries"
            )
        self._flat = flat
        self._views: dict[str, np.ndarray] = {}
        offset = 0
        for (name, shape), size in zip(shapes.items(), sizes):
            self._views[name] = flat[offset : offset + size].reshape(shape)
            offset += size

    @property
    def flat(self) -> np.ndarray:
        return self._flat

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def shapes(self) -> dict[str, tuple[int, ...]]:
        return {name: view.shape for name, view in self._views.items()}

    def zeros_like(self) -> "FlatParams":
        """The same layout over a zero buffer, e.g. for gradients."""
        return FlatParams(self.shapes())

    def __reduce__(self):
        # Pickle and deepcopy rebuild the views over one buffer; copied one
        # by one, each view would get a buffer of its own.
        return FlatParams, (self.shapes(), self._flat)


@dataclass(frozen=True)
class BackboneSpec:
    """Frozen sequence encoder configuration.

    ``frozen_mixer`` is generated once from ``seed`` and never updated;
    ``remote_llm`` delegates to a service that exposes hidden states of a
    real frozen model (POST {endpoint}/encode).
    """

    kind: str = "frozen_mixer"  # "frozen_mixer" | "remote_llm"
    hidden_dim: int = 384
    layers: int = 2
    seed: int = 0
    endpoint: str | None = None
    model_name: str | None = None

    def __post_init__(self):
        if self.kind not in ("frozen_mixer", "remote_llm"):
            raise ConfigError(f"unknown backbone kind {self.kind!r}")
        check_int(self.hidden_dim, "backbone hidden_dim", 1)
        check_int(self.layers, "backbone layers", 1, LAYERS_MAX)
        check_int(self.seed, "backbone seed", 0, SEED_MAX)
        if not all(isinstance(v, (str, type(None))) for v in (self.endpoint, self.model_name)):
            raise ConfigError("backbone endpoint and model_name must be strings or null")
        if self.kind == "remote_llm" and (not self.endpoint or not self.model_name):
            raise ConfigError("remote_llm backbone requires endpoint and model_name")


def causal_context(x: np.ndarray, lengths: list[int] | None = None) -> np.ndarray:
    """Per position i of an (n, k) sequence: [mean(x_s..x_i) ; x_i], the
    mixer block input, where s is the first row of i's segment. The rows
    stack segments of ``lengths`` rows (one segment of all n rows by
    default), and each segment's mean restarts at its first row. The
    cumulative sum is sequential within a segment, so the rows of a
    prefix's context equal the matching rows of the full context bit for
    bit, and a segment's rows equal those of its own pass."""
    n = x.shape[0]
    means = np.empty_like(x)
    start = 0
    for length in (n,) if lengths is None else lengths:
        stop = start + length
        np.cumsum(x[start:stop], axis=0, out=means[start:stop])
        means[start:stop] *= (1.0 / np.arange(1, length + 1, dtype=np.float64))[:, None]
        start = stop
    return np.concatenate([means, x], axis=1)


_DRAW_ROWS = 32  # rows of a mixer matrix drawn at a time


class FrozenMixer:
    """Seeded stack of frozen causal mixing blocks."""

    def __init__(self, spec: BackboneSpec, input_dim: int):
        rng = np.random.RandomState(spec.seed)
        self.matrices_t: list[np.ndarray] = []  # pre-transposed, (2*in, out)
        in_dim = input_dim
        for _ in range(spec.layers):
            fan_in = 2 * in_dim
            bound = 1.0 / math.sqrt(fan_in)
            # Drawn as a (hidden_dim, fan_in) matrix, row by row in blocks and
            # stored transposed; the stream is sequential, so the values equal
            # one whole draw's, without its transient full-size copy.
            matrix_t = np.empty((fan_in, spec.hidden_dim))
            for row in range(0, spec.hidden_dim, _DRAW_ROWS):
                block = rng.uniform(
                    -bound, bound, size=(min(_DRAW_ROWS, spec.hidden_dim - row), fan_in)
                )
                matrix_t[:, row : row + block.shape[0]] = block.T
            self.matrices_t.append(matrix_t)
            in_dim = spec.hidden_dim

    def run(
        self, sequence: np.ndarray, lengths: list[int] | None = None
    ) -> list[np.ndarray]:
        """Encode an (n, input_dim) sequence; returns every block's output.

        The last output is the (n, hidden_dim) hidden states; the backward
        pass reads the others. Position i of each output depends only on
        positions <= i of the input, so the final row of a pass over the
        length-t prefix agrees with row t of the full pass to rounding (not
        bit for bit: a one-row product takes a matrix-vector BLAS path), as
        do the rows ``Stream`` keeps, which it computes in another order
        (see there).

        ``lengths`` splits the rows into independent sequences stacked one
        after another (by default all n rows are one): the causal means
        restart at each one's first row, and each block is still one
        product over all n rows, which reads the block's matrix once. A
        sequence's rows agree with those of its own pass to rounding: BLAS
        may sum a row's products in another order for another number of
        rows, so the last bits can depend on the rows it is stacked with.
        """
        outputs = []
        x = sequence
        for matrix_t in self.matrices_t:
            x = np.tanh(causal_context(x, lengths) @ matrix_t)
            outputs.append(x)
        return outputs

    def backward(self, outputs: list[np.ndarray], grad: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. the input sequence, given ``run``'s outputs and the
        gradient w.r.t. the last block's output."""
        n = grad.shape[0]
        inv = (1.0 / np.arange(1, n + 1, dtype=np.float64))[:, None]
        for matrix_t, out in zip(reversed(self.matrices_t), reversed(outputs)):
            g_ctx = (grad * (1.0 - out * out)) @ matrix_t.T
            k = matrix_t.shape[0] // 2
            grad = np.cumsum((g_ctx[:, :k] * inv)[::-1], axis=0)[::-1]  # reversed cumsum
            grad += g_ctx[:, k:]
            # A fresh contiguous copy: a reversed or offset operand can take
            # another BLAS path and change the gradient's last bits, which
            # the golden training digest pins.
            grad = np.array(grad)
        return grad

    class Stream:
        """The hidden state after a growing sequence, one pushed row at a time.

        A block's pre-activation at position n is ``S / n + x_n @ M_bot``: S
        is the running sum of ``x_j @ M_top`` over the rows j <= n the block
        has read, and M_top, M_bot are the halves of its matrix that read the
        causal mean and the current row. The stream keeps each block's S and
        its output after the last pushed row, so a push costs the same at
        step 3 and step 300. Each block takes its row's two terms from one
        product with its halves stacked as a (2, in, hidden_dim) array:
        ``x @ [M_top; M_bot]`` gives ``[x @ M_top, x @ M_bot]``.

        f_h and block 1 are both linear before block 1's tanh, so the stream
        multiplies them together when it opens: the (d, 2 * hidden_dim) fold
        ``F = fh_w.T @ [M_top | M_bot]``, row-major, and its bias
        ``c = fh_b @ [M_top | M_bot]``, d * d_h * 2 * hidden_dim multiply-adds
        once per stream. A push makes one product for block 1, one per later
        block and a few vector operations. Block 1's product reads only the
        fold rows of the step's nonzero entries, ``step[idx] @ F[idx] + c``
        for ``idx = np.flatnonzero(step)``; each push allocates ``idx``, the
        k nonzero entries and a (k, 2 * hidden_dim) copy of their fold rows.
        A hashing step has a few nonzero entries of 128, so with the default
        two blocks, at d_e 64 and d_h 256, a push reads about 1.28 MB of
        weights; a dense step, as from the remote embedder, reads 1.75 MB and
        copies the whole fold, and the unfolded products read 2.5 MB. The
        projected query goes through block 1's own halves once, at open. The
        other products and vector operations of a push write into rows the
        stream allocates once; ``state`` is the last block's output row,
        rewritten in place by every push.

        The rows agree with ``run``'s on the same sequence to rounding: the
        fold and the running sums of products add in another order than the
        full pass's projections and causal means.
        """

        def __init__(
            self, mixer: FrozenMixer, params: Mapping[str, np.ndarray], query: np.ndarray
        ):
            # Per block: its halves [M_top; M_bot] as a (2, in, hidden_dim)
            # view, the running sum S, the row's two terms and its output.
            self._blocks = [
                (m.reshape(2, m.shape[0] // 2, m.shape[1]), np.zeros(m.shape[1]),
                 np.empty((2, m.shape[1])), np.empty(m.shape[1]))
                for m in mixer.matrices_t
            ]
            self.state = self._blocks[-1][3]
            first, _, terms, _ = self._blocks[0]
            fold = np.empty((params["fh_w"].shape[1], 2, first.shape[2]))
            np.matmul(params["fh_w"].T, first, out=fold.transpose(1, 0, 2))
            self._fold = fold.reshape(fold.shape[0], -1)
            self._fold_bias = np.matmul(params["fh_b"], first).reshape(-1)
            self._fold_terms = terms.reshape(-1)  # [top | bottom], a view
            self._length = 1  # rows read: the query plus the pushed steps
            np.matmul(query, first, out=terms)
            self._advance()

        def push(self, step: np.ndarray) -> None:
            """Read one more step row, before its projection by f_h."""
            self._length += 1
            idx = np.flatnonzero(step)  # a hashing step has a few nonzero entries
            np.matmul(step[idx], self._fold[idx], out=self._fold_terms)
            self._fold_terms += self._fold_bias
            self._advance()

        def _advance(self) -> None:
            """Take the row whose block-1 terms were just written through every
            block; ``_length`` already counts it."""
            inv = 1.0 / self._length
            x = None
            for halves, total, terms, out in self._blocks:
                if x is not None:
                    np.matmul(x, halves, out=terms)
                total += terms[0]
                np.multiply(total, inv, out=out)
                out += terms[1]
                np.tanh(out, out=out)
                x = out


# One backbone per (BackboneSpec, d_h): shared while any model holds it, freed
# when none does. Two threads that race build the same backbone.
_BACKBONES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class RemoteBackbone:
    """Client for POST {endpoint}/encode: {"model", "sequence": [[f64]]} -> {"vector"}.

    The service returns the hidden state after the last row of the sequence
    it is sent, so ``run`` sends one request per prefix of each stacked
    sequence and returns a single entry. Its states carry no gradient, so
    ``backward`` returns zeros and f_q and f_h get zero gradient. Each reply
    goes through ``transport.float_vectors``: a NaN or infinite value is a
    failed attempt, and a state of another dimension than ``hidden_dim`` ends
    the call with ConfigError.
    """

    def __init__(self, spec: BackboneSpec, input_dim: int):
        self.spec = spec
        self.input_dim = input_dim
        self._session = new_session()

    def encode(self, sequence: np.ndarray) -> np.ndarray:
        url = self.spec.endpoint.rstrip("/") + "/encode"
        body = {"model": self.spec.model_name, "sequence": sequence.tolist()}
        dim = self.spec.hidden_dim
        return post_json(
            self._session, url, body,
            lambda reply: float_vectors([reply["vector"]], 1, dim, "backbone service")[0],
        )

    def run(
        self, sequence: np.ndarray, lengths: list[int] | None = None
    ) -> list[np.ndarray]:
        states, start = [], 0
        for length in (len(sequence),) if lengths is None else lengths:
            states += [self.encode(sequence[start:stop])
                       for stop in range(start + 1, start + length + 1)]
            start += length
        return [np.stack(states)]

    def backward(self, outputs: list[np.ndarray], grad: np.ndarray) -> np.ndarray:
        return np.zeros((grad.shape[0], self.input_dim))

    class Stream:
        """Keeps the projected rows; each read of ``state`` sends them all in
        one /encode request."""

        def __init__(
            self, backbone: RemoteBackbone, params: Mapping[str, np.ndarray], query: np.ndarray
        ):
            self._backbone = backbone
            self._params = params
            self._rows = [query]

        def push(self, step: np.ndarray) -> None:
            self._rows.append(projected_steps(self._params, step))

        @property
        def state(self) -> np.ndarray:
            return self._backbone.encode(np.stack(self._rows))


def _param_shapes(d_e: int, d_h: int, hidden_dim: int) -> dict[str, tuple[int, ...]]:
    """Parameter shapes in ``PARAM_ORDER``; steps have dimension d = 2 * d_e."""
    d = 2 * d_e
    return {
        "fq_w": (d_h, d_e), "fq_b": (d_h,),
        "fh_w": (d_h, d), "fh_b": (d_h,),
        "ft_w": (d, hidden_dim), "ft_b": (d,),
        "wq": (d, d), "wk": (d, d), "wv": (d, d), "p": (d,),
    }


@dataclass
class DetectorModel:
    """All trainable parameters plus the frozen backbone configuration.

    ``params`` holds the ten parameters in ``PARAM_ORDER``, as views into
    one buffer (``params.flat``). ``lam`` is the prototype-loss weight the
    parameters were trained with, None for an untrained model; a checkpoint
    records it.
    """

    d_e: int
    d_h: int
    embedder: EmbedderSpec
    backbone: BackboneSpec
    seed: int
    params: FlatParams
    lam: float | None
    with_gt: bool = False
    _encoder: FrozenMixer | RemoteBackbone | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        check_int(self.d_e, "d_e", 1)
        check_int(self.d_h, "d_h", 1)
        check_int(self.seed, "seed", 0, SEED_MAX)
        if self.lam is not None:
            check_number(self.lam, "lambda", 0)
        if not (
            isinstance(self.with_gt, bool)
            and isinstance(self.embedder, EmbedderSpec)
            and isinstance(self.backbone, BackboneSpec)
            and isinstance(self.params, FlatParams)
            and self.embedder.dimension == self.d_e
            and self.params.shapes()
            == _param_shapes(self.d_e, self.d_h, self.backbone.hidden_dim)
        ):
            raise ConfigError(
                "with_gt must be a bool, embedder an EmbedderSpec of dimension d_e, "
                "backbone a BackboneSpec and params FlatParams of the shapes the "
                "dimensions give"
            )

    @property
    def d(self) -> int:
        """Step-embedding dimension; predictions live in the same space."""
        return 2 * self.d_e

    @classmethod
    def init(
        cls,
        embedder: EmbedderSpec,
        d_h: int = 384,
        backbone: BackboneSpec | None = None,
        seed: int = 0,
        with_gt: bool = False,
    ) -> "DetectorModel":
        """Seeded initialization: uniform(+-1/sqrt(fan_in)) weights, zero
        biases, Gaussian(0, 1/sqrt(d)) prototype. Without ``backbone`` the
        model gets a frozen mixer of width ``d_h`` drawn from the same
        ``seed``, as ``masc train --seed`` builds it."""
        check_int(d_h, "d_h", 1)  # both before the first draw
        check_int(seed, "seed", 0, SEED_MAX)
        d_e = embedder.dimension
        d = 2 * d_e
        if backbone is None:
            backbone = BackboneSpec(hidden_dim=d_h, seed=seed)
        rng = np.random.RandomState(seed)
        params = FlatParams(_param_shapes(d_e, d_h, backbone.hidden_dim))
        # Drawn in PARAM_ORDER; the biases stay zero.
        for name in ("fq_w", "fh_w", "ft_w", "wq", "wk", "wv"):
            out_dim, in_dim = params[name].shape
            bound = 1.0 / math.sqrt(in_dim)
            params[name][...] = rng.uniform(-bound, bound, size=(out_dim, in_dim))
        params["p"][...] = rng.standard_normal(d) / math.sqrt(d)
        return cls(
            d_e=d_e, d_h=d_h, embedder=embedder, backbone=backbone,
            seed=seed, with_gt=with_gt, params=params, lam=None,
        )

    def encoder(self) -> FrozenMixer | RemoteBackbone:
        """The frozen backbone for this model's (backbone, d_h), shared by
        every model with the same pair; a frozen mixer's matrices are never
        written."""
        if self._encoder is None:
            key = (self.backbone, self.d_h)
            kind = FrozenMixer if self.backbone.kind == "frozen_mixer" else RemoteBackbone
            # Built only when no live model holds one for the key.
            self._encoder = _BACKBONES.get(key) or _BACKBONES.setdefault(
                key, kind(self.backbone, self.d_h)
            )
        return self._encoder

    def param_digest(self) -> str:
        """SHA-256 of the parameter buffer's little-endian float64 bytes,
        which hold the parameters in ``PARAM_ORDER``. The buffer is hashed
        in place through the buffer protocol, with no copy of its bytes."""
        return hashlib.sha256(self.params.flat.astype("<f8", copy=False)).hexdigest()


@dataclass(frozen=True)
class AnomalyVerdict:
    """Per-step anomaly score and its two components.

    ``score == alpha * recon_term + beta * proto_term`` exactly as computed,
    ``flagged == (score > delta)``, and ``t`` is the step's 1-based index.
    """

    score: float
    recon_term: float
    proto_term: float
    alpha: float
    beta: float
    delta: float
    flagged: bool
    t: int


# -- forward pass ---------------------------------------------------------------


def projected_sequence(
    params: dict[str, np.ndarray], q_vec: np.ndarray, history: np.ndarray
) -> np.ndarray:
    """Rows [q~, f_h(h_1) .. f_h(h_k)] for a (k, 2*d_e) history matrix."""
    q_t = params["fq_w"] @ q_vec + params["fq_b"]
    return np.concatenate([q_t[None, :], projected_steps(params, history)], axis=0)


def projected_steps(params: dict[str, np.ndarray], steps: np.ndarray) -> np.ndarray:
    """Rows f_h(h_1) .. f_h(h_k) for a (k, 2*d_e) step matrix."""
    return steps @ params["fh_w"].T + params["fh_b"]


def predictions_tensor(
    model: DetectorModel,
    params: dict[str, np.ndarray],
    q_vec: np.ndarray,
    step_matrix: np.ndarray,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Matrix of x_hat_t rows for every step t in one causal pass.

    Also returns the backbone's block outputs, whose last entry holds the
    states the head reads; the backward pass needs them. A remote backbone
    has a single entry. This is the one-trajectory case of ``_encode``.
    """
    blocks = _encode(model, params, [(q_vec, step_matrix)])
    return _head(params, blocks[-1]), blocks


def _encode(
    model: DetectorModel,
    params: Mapping[str, np.ndarray],
    inputs: list[tuple[np.ndarray, np.ndarray]],
) -> list[np.ndarray]:
    """The backbone's block outputs over the stacked sequences [q~, f_h(h_1)
    .. f_h(h_{T-1})] of each (query, (T, d) step matrix) pair, T rows per
    trajectory, in one ``run``; each trajectory's causal means restart at
    its own first row. Each trajectory's projections are its own products."""
    sequences = []
    for q_vec, step_matrix in inputs:
        T = step_matrix.shape[0]
        if T < 1:
            raise DataError("empty trajectory")
        sequences.append(projected_sequence(params, q_vec, step_matrix[: T - 1]))
    stacked = sequences[0] if len(sequences) == 1 else np.concatenate(sequences)
    return model.encoder().run(stacked, [len(seq) for seq in sequences])


def _head(params: Mapping[str, np.ndarray], states: np.ndarray) -> np.ndarray:
    """The f_theta head: x_hat rows from backbone states."""
    return states @ params["ft_w"].T + params["ft_b"]


def softmax(v: np.ndarray) -> np.ndarray:
    """Numerically stable softmax of a 1-D vector (max-shift is exact)."""
    if v.ndim != 1 or v.size == 0:
        raise DataError("softmax over an empty attention context")
    shifted = np.exp(v - v.max())
    return shifted / shifted.sum()


def prototype_attention(
    params: dict[str, np.ndarray], x_hats: np.ndarray, d: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """New prototype: attention with p as query and predictions as keys/values.

    Returns (p_new, weights, query, keys, values): the output, the softmax
    weights over the predictions, and the projections the backward pass reads.
    """
    query = params["p"] @ params["wq"]
    keys = x_hats @ params["wk"]
    values = x_hats @ params["wv"]
    weights = softmax((keys @ query) / math.sqrt(d))
    return weights @ values, weights, query, keys, values


def reconstruction_loss(x_hats: np.ndarray, step_matrix: np.ndarray) -> float:
    """Mean over steps of ||x_hat_t - x_t||^2."""
    diff = x_hats - step_matrix
    return (1.0 / step_matrix.shape[0]) * float(np.sum(diff * diff))


def misalignment_loss(
    x_hats: np.ndarray, p: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """mean_t (1 - cos(x_hat_t, p)); a zero-norm vector counts as cos 0.

    Returns (loss, per-row cosines, per-row norms).
    """
    norms = np.sqrt(np.sum(x_hats * x_hats, axis=1))
    p_norm = float(np.linalg.norm(p))
    cos = np.zeros(x_hats.shape[0])
    if p_norm > 0.0:
        mask = norms > 0.0
        cos[mask] = (x_hats[mask] @ p) / (norms[mask] * p_norm)
    return float(1.0 - cos.sum() / x_hats.shape[0]), cos, norms


# -- loss and backward pass -----------------------------------------------------


def trajectory_loss(
    model: DetectorModel,
    params: Mapping[str, np.ndarray],
    q_vec: np.ndarray,
    step_matrix: np.ndarray,
    lam: float,
    grads: FlatParams,
) -> tuple[float, float, float, np.ndarray, FlatParams]:
    """Training loss of one trajectory and its gradient (step_matrix is T x d,
    row t = h_t).

    Returns (total, recon, proto, p_new, grads) where total = recon + lam *
    proto, recon is the mean squared prediction error against x_t := h_t,
    proto is the mean cosine misalignment of each prediction with the
    trajectory's attention-updated prototype p_new, and grads holds
    d total / d param for every parameter, written in place into ``grads``
    (training reuses one buffer for every trajectory). A remote backbone's
    states carry no gradient, so f_q and f_h get zero gradient.
    """
    T = step_matrix.shape[0]
    x_hats, blocks = predictions_tensor(model, params, q_vec, step_matrix)
    recon = reconstruction_loss(x_hats, step_matrix)
    p_new, weights, query, keys, values = prototype_attention(params, x_hats, model.d)
    proto, cos, norms = misalignment_loss(x_hats, p_new)
    total = recon + lam * proto

    # Losses. Float addition is not associative: the x_hats gradient sums
    # its four terms in the order the golden training digest was recorded
    # with (recon, misalignment, keys, values). Each gradient is written into
    # its view of ``grads`` with ``out=``; a weight gradient is computed as
    # g.T @ inputs, which gives the same bits as (inputs.T @ g).T without
    # the transposed copy.
    g_x = (2.0 * (1.0 / T)) * (x_hats - step_matrix)
    p_norm = float(np.linalg.norm(p_new))
    if p_norm > 0.0:
        scale = -float(lam) / T
        mask = norms > 0.0
        dx = np.zeros_like(x_hats)
        dx[mask] = p_new[None, :] / (norms[mask, None] * p_norm) - (
            cos[mask] / (norms[mask] ** 2)
        )[:, None] * x_hats[mask]
        g_x += scale * dx
        g_p = (x_hats[mask] / norms[mask, None]).sum(axis=0) / p_norm
        g_p -= cos[mask].sum() * p_new / (p_norm * p_norm)
        g_p = scale * g_p

        # Attention.
        g_w = values @ g_p
        g_values = np.outer(weights, g_p)
        g_scores = weights * (g_w - float(g_w @ weights)) / math.sqrt(model.d)
        g_keys = np.outer(g_scores, query)
        g_query = keys.T @ g_scores
        g_x += g_keys @ params["wk"].T
        g_x += g_values @ params["wv"].T
        np.matmul(x_hats.T, g_keys, out=grads["wk"])
        np.matmul(x_hats.T, g_values, out=grads["wv"])
        np.matmul(params["wq"], g_query, out=grads["p"])
        np.outer(params["p"], g_query, out=grads["wq"])
    else:  # a zero p_new makes every cos 0: no gradient flows
        for name in ("wk", "wv", "p", "wq"):
            grads[name].fill(0.0)

    # Head.
    np.matmul(g_x.T, blocks[-1], out=grads["ft_w"])
    np.sum(g_x, axis=0, out=grads["ft_b"])

    # Backbone, then the projections. At T = 1 no step is projected: the
    # empty product and the empty sum write +0.0 into the f_h gradients.
    g_seq = model.encoder().backward(blocks, g_x @ params["ft_w"])
    np.outer(g_seq[0], q_vec, out=grads["fq_w"])
    grads["fq_b"][...] = g_seq[0]
    g_h = np.array(g_seq[1:])  # a fresh copy, as in the mixer
    np.matmul(g_h.T, step_matrix[: T - 1], out=grads["fh_w"])
    np.sum(g_h, axis=0, out=grads["fh_b"])
    return total, recon, proto, p_new, grads


# -- inference ------------------------------------------------------------------


def _checked_query(model: DetectorModel, q_vec) -> np.ndarray:
    """The query as a float64 vector; ConfigError on a dimension other than
    d_e, DataError on a NaN or infinite entry, which would make every later
    score NaN and so never flagged."""
    if np.shape(q_vec) != (model.d_e,):
        raise ConfigError(f"query vector must have dimension {model.d_e}")
    q_vec = np.asarray(q_vec, dtype=np.float64)
    if not np.isfinite(q_vec).all():
        raise DataError("query embedding holds a NaN or infinite value")
    return q_vec


def _checked_inputs(
    model: DetectorModel, q_vec, step_embs
) -> tuple[np.ndarray, np.ndarray]:
    """The checked query (``_checked_query``) and the (T, d) step matrix;
    ConfigError on a step dimension other than d, DataError on a NaN or
    infinite entry."""
    q_vec = _checked_query(model, q_vec)
    if not isinstance(step_embs, np.ndarray):
        try:
            step_embs = np.stack(step_embs)
        except ValueError as exc:
            raise ConfigError(f"step embeddings must have dimension {model.d}") from exc
    if step_embs.ndim != 2 or step_embs.shape[1] != model.d:
        raise ConfigError(f"step embeddings must have dimension {model.d}")
    if not np.isfinite(step_embs).all():
        raise DataError("step embedding holds a NaN or infinite value")
    return q_vec, step_embs


_INF = math.inf  # a global read costs less than math.inf's attribute read
_MAX = sys.float_info.max  # an int above it cannot be a float weight


def check_score_settings(alpha: float, beta: float, delta: float) -> None:
    """The one rule for the score settings: alpha and beta are finite, >= 0
    and not both zero (an int too large for a float is not finite here: it
    would overflow when a score is made); delta is any number but NaN, so
    +inf flags no step and -inf every step. ConfigError names the setting at
    fault.

    Every scorer (``_verdicts``, ``DetectorStream.score``,
    ``calibrate_threshold``) and every record that holds the settings
    (``Calibration``, ``MascHook``, ``MascSettings``) calls it: a NaN
    weight makes every score NaN, and ``score > delta`` is false whenever
    the score or delta is NaN, so either would switch detection off without
    an error. Plain comparisons of floats, as the in-loop turn calls it once
    a step: about 0.1 us on a 2-core Xeon.
    """
    try:
        if not 0.0 <= alpha <= _MAX:
            fault = f"alpha must be a finite number >= 0, got {alpha!r}"
        elif not 0.0 <= beta <= _MAX:
            fault = f"beta must be a finite number >= 0, got {beta!r}"
        elif not -_INF <= delta <= _INF:
            fault = f"delta must be a number other than NaN, got {delta!r}"
        elif alpha or beta:
            return
        else:
            fault = "alpha and beta must not both be zero"
    except (TypeError, ValueError):  # a value that does not compare as a number
        fault = f"alpha, beta and delta must be numbers, got {alpha!r}, {beta!r}, {delta!r}"
    raise ConfigError(fault)


def _verdict(
    x_hat: np.ndarray,
    recon_term: float,
    p: np.ndarray,
    p_norm: float,
    alpha: float,
    beta: float,
    delta: float,
    t: int,
) -> AnomalyVerdict:
    """Step t's verdict from its prediction and its squared prediction
    error, thresholded at ``delta``; ``p_norm`` is
    ``float(np.linalg.norm(p))``, which the caller computes once.

    A prediction or a prototype of zero norm counts as cos 0, with a
    warning. A score that is not finite raises DivergenceError: weights
    that pass ``check_score_settings`` can still overflow it, and an inf
    score would flag the step, a NaN one never. Both terms are >= 0 up to
    rounding, so the score is never -inf, and one comparison finds +inf and
    NaN.
    """
    x_norm = math.sqrt(x_hat.dot(x_hat))
    if x_norm == 0.0 or p_norm == 0.0:
        logger.warning("zero-norm vector in cosine; treating cos as 0")
        cos = 0.0
    else:
        cos = float(x_hat.dot(p)) / (x_norm * p_norm)
    proto_term = 1.0 - cos
    score = alpha * recon_term + beta * proto_term
    if not score < _INF:
        raise DivergenceError(
            f"step {t}: score {score} is not finite (alpha={alpha!r}, beta={beta!r})"
        )
    return AnomalyVerdict(
        score, recon_term, proto_term, alpha, beta, delta, bool(score > delta), t
    )


def _verdicts(
    x_hats: np.ndarray,
    step_matrix: np.ndarray,
    p: np.ndarray,
    p_norm: float,
    alpha: float,
    beta: float,
    delta: float,
    t0: int,
) -> list[AnomalyVerdict]:
    """One verdict per row of (x_hats, step_matrix), the rows being steps
    t0, t0 + 1, ... (see ``_verdict``). Why the batch equals scoring each
    row alone, bit for bit: see ``score_trajectory``.
    """
    check_score_settings(alpha, beta, delta)
    squared = x_hats - step_matrix
    squared *= squared
    recon = np.sum(squared, axis=1).tolist()
    return [
        _verdict(x_hat, recon_term, p, p_norm, alpha, beta, delta, t)
        for t, (x_hat, recon_term) in enumerate(zip(x_hats, recon), start=t0)
    ]


def score_trajectory(
    model: DetectorModel,
    q_vec: np.ndarray,
    step_embs,
    alpha: float,
    beta: float,
    delta: float = math.inf,
) -> list[AnomalyVerdict]:
    """Verdicts for every step of a recorded trajectory in one causal pass.

    The sequence encoder runs once over the whole trajectory as matrix
    products; that stays faster than pushing the rows through a
    ``DetectorStream`` one at a time. Step t's verdict agrees to rounding
    with the stream's, with the verdict on the trajectory cut at t (see
    ``FrozenMixer.run``) and with ``score_corpus``'s, whose last bits can
    depend on the trajectories it shares a chunk with. A query of dimension
    other than d_e, or a step of dimension other than d, raises ConfigError;
    so do settings ``check_score_settings`` refuses (alpha and beta finite,
    >= 0 and not both zero, delta not NaN). A score the weights overflow
    raises DivergenceError (see ``_verdict``).

    The verdicts, too, come from whole-trajectory arrays: the squared
    prediction errors of all T steps in one row-wise reduction, and the
    prototype's norm once. Each row's reduction sums in the same order as
    the sum of that one contiguous row, so every verdict equals that step
    scored alone (as ``DetectorStream.score`` scores it) bit for bit. The
    two dot products per row (the prediction with itself and with the
    prototype) stay per-row calls: one matrix-vector product over all rows
    sums in another order and moves last bits.
    """
    if len(step_embs) == 0:
        raise DataError("empty trajectory")
    return _score_stacked(
        model, [_checked_inputs(model, q_vec, step_embs)], alpha, beta, delta
    )[0]


# Rows stacked into one backbone pass by ``score_corpus``. At d_h 384 a
# block's (768, 384) matrix, 2.4 MB, exceeds a 2 MB L2, so a product over a
# few rows is bound by reading it: with one BLAS thread on a 2-core Xeon, a
# product cost 18 us a row at 12 rows, 11 us at 64 and 9 us at 120. Larger
# chunks gain little and add to peak memory: scoring a 60-row chunk peaked
# at 1.2 MB traced.
CHUNK_ROWS = 64


def score_corpus(
    model: DetectorModel,
    trajectories: Iterable[Trajectory],
    alpha: float,
    beta: float,
    delta: float = math.inf,
) -> Iterator[list[AnomalyVerdict]]:
    """Verdicts for every step of every trajectory, one list per trajectory,
    in order.

    The trajectories go in chunks of whole trajectories of at most
    ``CHUNK_ROWS`` steps together; a longer trajectory is a chunk of its
    own. Each chunk is embedded in one batch (one /embed request for a
    remote embedder), and its trajectories' sequences are stacked, so each
    frozen-mixer block is one product per chunk (see ``FrozenMixer.run``),
    not one per trajectory. The head and the verdicts are per trajectory,
    as in ``score_trajectory``, and the scores agree with it to rounding;
    a trajectory's last bits can depend on the chunk it shares. Only one
    chunk's arrays are alive at a time. Raises what ``score_trajectory``
    raises, when it reaches the chunk at fault; settings
    ``check_score_settings`` refuses, before the first chunk is embedded.
    """
    check_score_settings(alpha, beta, delta)
    for chunk in _chunks(trajectories):
        embedded = embed_trajectories(model.embedder, chunk, with_gt=model.with_gt)
        inputs = [_checked_inputs(model, q_vec, steps) for q_vec, steps in embedded]
        yield from _score_stacked(model, inputs, alpha, beta, delta)


def _chunks(trajectories: Iterable[Trajectory]) -> Iterator[list[Trajectory]]:
    """Runs of whole trajectories of at most ``CHUNK_ROWS`` steps together,
    in order; a longer trajectory is a run of its own."""
    chunk, rows = [], 0
    for trajectory in trajectories:
        if chunk and rows + len(trajectory) > CHUNK_ROWS:
            yield chunk
            chunk, rows = [], 0
        chunk.append(trajectory)
        rows += len(trajectory)
    if chunk:
        yield chunk


def _score_stacked(
    model: DetectorModel,
    inputs: list[tuple[np.ndarray, np.ndarray]],
    alpha: float,
    beta: float,
    delta: float,
) -> list[list[AnomalyVerdict]]:
    """Verdicts for each checked (query, step matrix) pair, from one
    stacked backbone pass (``_encode``) and each trajectory's own head."""
    params = model.params
    states = _encode(model, params, inputs)[-1]
    p = params["p"]
    p_norm = float(np.linalg.norm(p))
    out, start = [], 0
    for _, step_matrix in inputs:
        stop = start + step_matrix.shape[0]
        x_hats = _head(params, states[start:stop])
        out.append(_verdicts(x_hats, step_matrix, p, p_norm, alpha, beta, delta, 1))
        start = stop
    return out


class DetectorStream:
    """In-loop detection: each step is scored before it is committed.

    The stream holds its backbone's ``Stream`` over the projected query and
    the committed steps, which gives the hidden state the next prediction
    reads; the frozen mixer's costs the same at step 3 and step 300, and a
    remote backbone's sends one /encode request per scored step (see each
    backbone's ``Stream``). Each ``score`` adds the f_theta head's product on
    that state; the run loop scores a turn once, then commits.

    The model's parameters must stay frozen for the stream's lifetime: the
    backbone stream's state, the head and the prototype's norm (taken once,
    when the stream opens) all come from them. The query is checked once,
    when the stream opens, as ``score_trajectory`` checks it: a NaN or
    infinite entry raises DataError. Steps are not checked for NaN or
    infinite values here, which would cost two checks a turn; the embedders
    reject such vectors where they come from, and a score one made NaN would
    raise DivergenceError in ``_verdict``. Each ``score`` checks its
    settings by ``check_score_settings``, the rule every scorer applies.

    ``score`` judges a pending step against the committed history and
    leaves the stream unchanged; the verdict comes from ``_verdict``, as
    ``score_trajectory``'s do. ``commit`` appends the step the run keeps:
    the corrected one when a correction replaced the output. Verdicts agree
    with ``score_trajectory`` on the committed trajectory to rounding. A
    query of dimension other than d_e, or a step of dimension other than d,
    raises ConfigError.
    """

    def __init__(self, model: DetectorModel, q_vec: np.ndarray):
        q_vec = _checked_query(model, q_vec)
        self.model = model
        params = model.params
        # Views the turns read; the parameters stay frozen while the stream lives.
        self._ft_w_t, self._ft_b = params["ft_w"].T, params["ft_b"]
        self._p = params["p"]
        self._p_norm = float(np.linalg.norm(self._p))
        self._x_hat = np.empty(model.d)
        self._squared = np.empty(model.d)
        self._length = 1  # rows encoded: the query plus the committed steps
        # The first row ``projected_sequence`` gives, bit for bit.
        query = params["fq_w"] @ q_vec + params["fq_b"]
        encoder = model.encoder()
        self._stream = encoder.Stream(encoder, params, query)

    def _checked_step(self, step_emb) -> np.ndarray:
        if np.shape(step_emb) != (self.model.d,):
            raise ConfigError(f"step embeddings must have dimension {self.model.d}")
        return np.asarray(step_emb, dtype=np.float64)

    def score(
        self, step_emb: np.ndarray, alpha: float, beta: float, delta: float
    ) -> AnomalyVerdict:
        """Verdict on the pending step t = (committed steps) + 1."""
        step = self._checked_step(step_emb)
        check_score_settings(alpha, beta, delta)
        x_hat = np.matmul(self._stream.state, self._ft_w_t, out=self._x_hat)
        x_hat += self._ft_b
        squared = np.subtract(x_hat, step, out=self._squared)
        squared *= squared
        return _verdict(
            x_hat, float(squared.sum()), self._p, self._p_norm,
            alpha, beta, delta, self._length,
        )

    def commit(self, step_emb: np.ndarray) -> None:
        """Append a step to the history the next prediction reads."""
        step = self._checked_step(step_emb)
        self._length += 1
        self._stream.push(step)
