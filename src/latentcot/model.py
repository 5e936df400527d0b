"""Miniature decoder-only multimodal transformer with latent feedback.

Sequences are typed: text segments carry token ids, image segments carry
pre-featurized patch rows, latent segments carry raw d-vectors that bypass the
embedding table. Two mask modes exist: plain causal, and an aux-gated mode
where auxiliary-image keys are visible only to the image itself and to the
latent segment that immediately follows it.

One deliberate architectural rule: latent positions contribute attention
keys/values derived from their layer-0 input state at every layer, while
their residual stream still evolves normally (it produces the vectors that
get fed back). This pins down the information route into later text: only
the latent input vectors themselves carry auxiliary-image content forward,
and with those inputs held fixed, downstream text states are bit-independent
of the auxiliary image.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import vocab


class SegmentRole(enum.Enum):
    QUESTION_TEXT = "question_text"
    QUESTION_IMAGE = "question_image"
    AUX_IMAGE = "aux_image"
    LATENT = "latent"
    OBSERVATION_TEXT = "observation_text"
    PLAIN_TEXT = "plain_text"
    ANSWER = "answer"


TEXT_ROLES = {SegmentRole.QUESTION_TEXT, SegmentRole.OBSERVATION_TEXT,
              SegmentRole.PLAIN_TEXT, SegmentRole.ANSWER}
IMAGE_ROLES = {SegmentRole.QUESTION_IMAGE, SegmentRole.AUX_IMAGE}


class MaskMode(enum.Enum):
    CAUSAL = "causal"
    AUX_GATED = "aux_gated"


class LayoutError(ValueError):
    pass


@dataclass
class ModelConfig:
    layer_count: int = 3
    hidden_dim: int = 64
    head_count: int = 4
    vocab_size: int = vocab.VOCAB_SIZE
    max_positions: int = 160
    patch_dim: int = 1  # grid cells per image patch
    patch_features: int = vocab.PATCH_FEATURES

    def __post_init__(self):
        if self.hidden_dim % self.head_count:
            raise ValueError("hidden_dim must be divisible by head_count")
        if self.patch_dim != 1:
            raise ValueError("only single-cell patches are supported")

    def to_manifest(self) -> dict:
        return {"layer_count": self.layer_count, "hidden_dim": self.hidden_dim,
                "head_count": self.head_count, "vocab_size": self.vocab_size,
                "max_positions": self.max_positions, "patch_dim": self.patch_dim,
                "patch_features": self.patch_features}

    @staticmethod
    def from_manifest(d: dict) -> "ModelConfig":
        return ModelConfig(**{k: int(v) for k, v in d.items()})


@dataclass
class Segment:
    role: SegmentRole
    tokens: list | None = None     # text roles: vocab ids
    feats: np.ndarray | None = None  # image roles: (n_patches, patch_features)
    latents: list | None = None    # latent role: None | ndarray | Tensor per slot

    def __len__(self):
        if self.role in TEXT_ROLES:
            return len(self.tokens)
        if self.role in IMAGE_ROLES:
            return 0 if self.feats is None else self.feats.shape[0]
        return len(self.latents)


def text_segment(role: SegmentRole, tokens) -> Segment:
    return Segment(role, tokens=list(tokens))


def image_segment(role: SegmentRole, feats: np.ndarray) -> Segment:
    return Segment(role, feats=np.asarray(feats, dtype=np.float64))


def latent_segment(count: int, contents=None) -> Segment:
    return Segment(SegmentRole.LATENT, latents=list(contents) if contents is not None
                   else [None] * count)


class SequenceLayout:
    """Ordered typed segments plus derived per-position indexes."""

    def __init__(self, segments):
        self.segments = []
        self.roles = []
        self.latent_slots = []  # (segment_index, slot_index, position)
        self.seg_starts = []
        self.length = 0
        token_at = []  # vocab id or -1
        for seg in segments:
            token_at += self._index(seg)
        self.token_at = np.asarray(token_at, dtype=np.int64)
        self.latent_mask = np.zeros(self.length, dtype=bool)
        for _, _, p in self.latent_slots:
            self.latent_mask[p] = True

    def _index(self, seg: Segment) -> list:
        """Record `seg` as the last segment; returns its per-position token ids."""
        si, pos, n = len(self.segments), self.length, len(seg)
        self.segments.append(seg)
        self.seg_starts.append(pos)
        self.roles.extend([seg.role] * n)
        if seg.role is SegmentRole.LATENT:
            self.latent_slots.extend((si, k, pos + k) for k in range(n))
        self.length = pos + n
        return list(seg.tokens) if seg.role in TEXT_ROLES else [-1] * n

    def append(self, seg: Segment):
        """Extend the layout in place by one segment, without a rebuild."""
        tokens = self._index(seg)
        self.token_at = np.concatenate([self.token_at, np.asarray(tokens, dtype=np.int64)])
        self.latent_mask = np.concatenate(
            [self.latent_mask, np.full(len(tokens), seg.role is SegmentRole.LATENT)])

    def positions(self, role: SegmentRole) -> list:
        return [i for i, r in enumerate(self.roles) if r is role]

    def segment_range(self, si: int) -> tuple:
        start = self.seg_starts[si]
        return start, start + len(self.segments[si])

    def latent_source(self, si: int) -> int:
        """Position whose layer-L state seeds slot 0 of latent segment `si`:
        the nearest preceding latent-start marker token, else the position
        just before the segment."""
        start = self.seg_starts[si]
        marker = vocab.TOKEN_TO_ID[vocab.LATENT_START]
        for p in range(start - 1, -1, -1):
            if self.token_at[p] == marker:
                return p
        if start == 0:
            raise LayoutError("latent segment at sequence start has no source position")
        return start - 1

    def prefix(self, t: int) -> "SequenceLayout":
        """The first `t` positions; the segment that `t` cuts is shortened."""
        si = bisect.bisect_right(self.seg_starts, t - 1) - 1
        seg, n = self.segments[si], t - self.seg_starts[si]
        if n < len(seg):
            seg = Segment(seg.role, seg.tokens and seg.tokens[:n],
                          None if seg.feats is None else seg.feats[:n],
                          seg.latents and seg.latents[:n])
        return SequenceLayout(self.segments[:si] + [seg])

    def set_latent(self, si: int, slot: int, value):
        self.segments[si].latents[slot] = value


@dataclass
class AttentionMaskSpec:
    mode: MaskMode
    allow: np.ndarray  # (T, T) bool, allow[q][k]


def build_attention_mask(layout: SequenceLayout, mode: MaskMode) -> AttentionMaskSpec:
    T = layout.length
    allow = np.tril(np.ones((T, T), dtype=bool))
    if mode is MaskMode.AUX_GATED:
        for si, seg in enumerate(layout.segments):
            if seg.role is not SegmentRole.AUX_IMAGE or len(seg) == 0:
                continue
            a0, a1 = layout.segment_range(si)
            if si + 1 >= len(layout.segments) or layout.segments[si + 1].role is not SegmentRole.LATENT:
                raise LayoutError(
                    "aux-gated mask requires each auxiliary image segment to be "
                    "immediately followed by a latent segment")
            l0, l1 = layout.segment_range(si + 1)
            rows = np.zeros(T, dtype=bool)
            rows[a0:a1] = True
            rows[l0:l1] = True
            allow[:, a0:a1] &= rows[:, None]
    return AttentionMaskSpec(mode, allow)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def param_shapes(config: ModelConfig) -> dict:
    d, V = config.hidden_dim, config.vocab_size
    shapes = {
        "tok_emb": (V, d),
        "pos_emb": (config.max_positions, d),
        "patch_proj": (config.patch_features, d),
    }
    for l in range(config.layer_count):
        p = f"block{l}."
        shapes[p + "ln1_g"] = (d,)
        shapes[p + "ln1_b"] = (d,)
        shapes[p + "wq"] = (d, d)
        shapes[p + "wk"] = (d, d)
        shapes[p + "wv"] = (d, d)
        shapes[p + "wo"] = (d, d)
        shapes[p + "ln2_g"] = (d,)
        shapes[p + "ln2_b"] = (d,)
        shapes[p + "w1"] = (d, 4 * d)
        shapes[p + "b1"] = (4 * d,)
        shapes[p + "w2"] = (4 * d, d)
        shapes[p + "b2"] = (d,)
    shapes["lnf_g"] = (d,)
    shapes["lnf_b"] = (d,)
    shapes["w_out"] = (d, V)
    return shapes


def init_params(config: ModelConfig, rng: np.random.Generator, scale: float = 0.02) -> dict:
    params = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(("_g",)):
            data = np.ones(shape)
        elif name.endswith(("_b", "b1", "b2")):
            data = np.zeros(shape)
        else:
            data = rng.normal(0.0, scale, size=shape)
        params[name] = ad.parameter(name, data)
    return params


def zero_params(config: ModelConfig) -> dict:
    return {name: ad.parameter(name, np.zeros(shape))
            for name, shape in param_shapes(config).items()}


def copy_params(params: dict) -> dict:
    return {name: ad.parameter(name, t.data.copy()) for name, t in params.items()}


def params_allclose(a: dict, b: dict) -> bool:
    return all(np.array_equal(a[k].data, b[k].data) for k in a)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def embed_layout(layout: SequenceLayout, params: dict, config: ModelConfig,
                 start: int = 0) -> ad.Tensor:
    """One d-vector per position from `start` on: token lookup, patch
    projection, or the latent slot's content vector verbatim; learned
    positions added to all. An image segment that `start` cuts is projected
    whole and then sliced, so its rows keep the bits of a full pass."""
    return _embed([(layout, start)], params, config)


def _embed(parts: list, params: dict, config: ModelConfig) -> ad.Tensor:
    """`embed_layout` of each (layout, start) in `parts`, stacked in order
    with one concatenation and one position lookup."""
    d = config.hidden_dim
    blocks, positions = [], []
    for layout, start in parts:
        if layout.length > config.max_positions:
            raise LayoutError(f"layout length {layout.length} exceeds max_positions "
                              f"{config.max_positions}")
        positions.append(np.arange(start, layout.length))
        first = max(bisect.bisect_right(layout.seg_starts, start) - 1, 0)
        for si in range(first, len(layout.segments)):
            seg = layout.segments[si]
            a, b = layout.segment_range(si)
            if b <= max(a, start):
                continue
            skip = max(start - a, 0)
            if seg.role in TEXT_ROLES:
                ids = np.asarray(seg.tokens[skip:], dtype=np.int64)
                if ids.size and (ids.min() < 0 or ids.max() >= config.vocab_size):
                    raise LayoutError(f"unknown token id in segment: {seg.tokens}")
                blocks.append(ad.gather_rows(params["tok_emb"], ids))
            elif seg.role in IMAGE_ROLES:
                if seg.feats.shape[1] != config.patch_features:
                    raise LayoutError(f"patch grid feature size {seg.feats.shape[1]} "
                                      f"!= {config.patch_features}")
                proj = ad.matmul(ad.constant(seg.feats), params["patch_proj"])
                blocks.append(ad.gather_rows(proj, np.arange(skip, b - a)) if skip else proj)
            else:
                for v in seg.latents[skip:]:
                    if v is None:
                        blocks.append(ad.constant(np.zeros((1, d))))
                    elif isinstance(v, ad.Tensor):
                        blocks.append(ad.reshape(v, (1, d)))
                    else:
                        blocks.append(ad.constant(np.asarray(v, dtype=np.float64).reshape(1, d)))
    if not blocks:
        raise LayoutError("empty layout")
    pos = ad.gather_rows(params["pos_emb"], np.concatenate(positions))
    return ad.add(ad.concat_rows(blocks), pos)


def _select_rows(a: ad.Tensor, b: ad.Tensor, row_mask: np.ndarray) -> ad.Tensor:
    """Row-exact select: rows of `b` where row_mask, rows of `a` elsewhere."""
    m = row_mask[:, None]
    out = np.where(m, b.data, a.data)

    def vjp(g):
        return (g * ~m, g * m)

    return ad.Tensor(out, (a, b), vjp)


class ForwardCache:
    """What `forward` keeps of the rows it has run, for one growing sequence:
    each layer's attention keys and values, and the post-final-norm states.

    `rows[2l]` and `rows[2l + 1]` hold layer l's keys and values, `rows[2L]`
    the final states; each spans `max_positions` rows, the first `length`
    valid. Beside the buffers the cache keeps, per pass, the graph nodes that
    produced its rows (`owners`) and its `spans`: the first row it ran and the
    first row it added. A pass that reruns the row before its new one writes
    that row's bits again (they differ only after a one-row first pass) but
    leaves its gradient with the pass that first ran it. Under `no_grad` the
    nodes have no parents and the buffer views are all a pass reads.

    The buffers start zero-filled, and `rows` may be handed in (a view of a
    group's shared buffer): a group step reads the rows past a sequence's
    length as padded keys and values of zero probability, and 0 x NaN is NaN.
    """

    def __init__(self, config: ModelConfig, rows: np.ndarray | None = None):
        count = 2 * config.layer_count + 1
        self.length = 0
        self.rows = np.zeros((count, config.max_positions, config.hidden_dim)) \
            if rows is None else rows
        self.owners = [[] for _ in range(count)]
        self.spans = []

    def store(self, i: int, node: ad.Tensor) -> ad.Tensor:
        """Write this pass's rows of buffer `i` and return rows 0..T-1 of it
        as one node, whose gradient goes row by row to the owning passes."""
        first, _ = self.spans[-1]
        T = first + node.shape[0]
        self.rows[i, first:T] = node.data
        owners = self.owners[i]
        owners.append(node)
        # a no-grad node drops its vjp, so skip the O(passes) copy there
        spans = self.spans[:len(owners)] if ad.grad_enabled() else ()

        def vjp(g):
            grads = []
            for j, (ran, own) in enumerate(spans):
                end = spans[j + 1][1] if j + 1 < len(spans) else T
                if ran == own:
                    grads.append(g[own:end])
                else:
                    pad = np.zeros((end - ran, g.shape[1]))
                    pad[own - ran:] = g[own:end]
                    grads.append(pad)
            return tuple(grads)

        return ad.Tensor(self.rows[i, :T], owners, vjp)

    def final_row(self, pos: int) -> ad.Tensor:
        """The post-final-norm state at a cached position, as a node of the
        pass that first ran it."""
        j = bisect.bisect_right([own for _, own in self.spans], pos) - 1
        return ad.get_row(self.owners[-1][j], pos - self.spans[j][0])


def forward(layout: SequenceLayout, mask: AttentionMaskSpec, params: dict,
            config: ModelConfig, cache: ForwardCache | None = None):
    """Pre-norm transformer pass.

    Returns (logits (T, V), stack), where stack[0] is the input embedding,
    stack[l] the residual after block l, and stack[L] the post-final-norm
    state (the vector that gets fed back during latent decoding).

    The pass is prefix-invariant: rows of a pass over a prefix equal the
    same rows of a longer pass, bit for bit (softmax denominators are summed
    over a fixed `max_positions` width). That makes a cached pass exact.

    With a `cache` the layout must extend the sequence the cache holds. The
    pass runs only the rows the cache lacks, attending to the cached keys
    and values, and stores the new rows; its stack holds just those rows.
    `mask.allow` may then hold only the last rows of the (T, T) mask, down
    to the first row the pass runs. Logits still come from one matmul over
    all T final rows, as in a full pass: OpenBLAS rounds a row of the narrow
    output projection by its place in the row blocking. A single new row
    runs beside the row before it, since a one-row matmul (gemv) rounds
    differently. With a graph, the cached rows are nodes, so backward
    reaches the passes that made them.
    """
    T = layout.length
    start = 0
    if cache is not None:
        if T <= cache.length:
            raise LayoutError(f"layout length {T} does not extend the {cache.length} cached rows")
        start = max(min(cache.length, T - 2), 0)
    R = T - start
    if mask.allow.shape[1:] != (T,) or not R <= mask.allow.shape[0] <= T:
        raise LayoutError(f"mask shape {mask.allow.shape} does not match layout length {T} "
                          f"with {R} rows to run")
    allow = np.broadcast_to(mask.allow[-R:], (1, config.head_count, R, T))
    x0 = embed_layout(layout, params, config, start)
    if cache is not None:
        cache.spans.append((start, cache.length))
    stack = _blocks(x0, layout.latent_mask[start:], allow, params, config,
                    (lambda i, node: node) if cache is None else cache.store)
    final = stack[-1]
    if cache is not None:
        final = cache.store(2 * config.layer_count, final)
        cache.length = T
    logits = ad.matmul(final, params["w_out"])
    return logits, stack


def forward_group(layouts: list, params: dict, config: ModelConfig):
    """Causal full passes over G layouts as one stacked pass through the
    blocks. Each layout's rows are padded with zero rows to the longest
    length T; layout g holds rows g*T onward. Its rows get the bits of a lone
    `forward`: padded rows come after its own, so the causal mask hides
    them, and its logits come from one matmul over its own final rows.
    Returns (logits (G*T, V), final (G*T, d)); padded logits rows are zero."""
    G, d = len(layouts), config.hidden_dim
    T = max(layout.length for layout in layouts)
    own = [slice(g * T, g * T + layout.length) for g, layout in enumerate(layouts)]
    parts, latent_rows, real = [], np.zeros(G * T, dtype=bool), np.zeros((G * T, 1))
    for layout, rows in zip(layouts, own):
        parts.append(embed_layout(layout, params, config))
        if layout.length < T:
            parts.append(ad.constant(np.zeros((T - layout.length, d))))
        latent_rows[rows] = layout.latent_mask
        real[rows] = 1.0
    allow = np.broadcast_to(np.tri(T, dtype=bool), (G, config.head_count, T, T))
    final = _blocks(ad.concat_rows(parts), latent_rows, allow, params, config,
                    lambda i, node: node)[-1]
    w_out = params["w_out"]
    logits = np.zeros((G * T, config.vocab_size))
    for rows in own:
        logits[rows] = final.data[rows] @ w_out.data

    def vjp(g):
        g = g * real  # padded logits rows are constant zeros
        return g @ w_out.data.T, final.data.T @ g

    return ad.Tensor(logits, (final, w_out), vjp), final


def _blocks(x0: ad.Tensor, latent_rows: np.ndarray, allow: np.ndarray, params: dict,
            config: ModelConfig, attend) -> list:
    """The transformer blocks and final norm, over the rows of G sequences
    stacked as one (G*R, d) input `x0`, R rows each. `allow` (G, H, R, T)
    says which of its sequence's T key positions each row sees.
    `attend(i, node)` takes the new rows' keys (i = 2l) or values (i = 2l+1)
    of layer l and returns the (G*T, d) or (G, T, d) rows they attend over.
    Every op but attention is row-wise, so a row gets the same bits in any
    stack. Returns the stack: x0, each block's residual but the last, and
    the post-final-norm rows."""
    G, H, R, T = allow.shape
    scale = 1.0 / np.sqrt(config.hidden_dim // H)
    has_latents = bool(latent_rows.any())
    sum_buffer = np.zeros((G, H, R, config.max_positions))
    stack = [x0]
    resid = x0
    for l in range(config.layer_count):
        p = f"block{l}."
        q_in = ad.layer_norm(resid, params[p + "ln1_g"], params[p + "ln1_b"])
        if has_latents:
            kv_stream = _select_rows(resid, x0, latent_rows)
            kv_in = ad.layer_norm(kv_stream, params[p + "ln1_g"], params[p + "ln1_b"])
        else:
            kv_in = q_in
        q = _to_heads(ad.matmul(q_in, params[p + "wq"]), G, H)
        k = _to_heads(attend(2 * l, ad.matmul(kv_in, params[p + "wk"])), G, H)
        v = _to_heads(attend(2 * l + 1, ad.matmul(kv_in, params[p + "wv"])), G, H)
        scores = ad.scale(ad.matmul(q, ad.swap_last(k)), scale)
        probs = ad.masked_softmax(scores, allow, sum_buffer)
        attn = _from_heads(ad.matmul(probs, v))
        resid = ad.add(resid, ad.matmul(attn, params[p + "wo"]))
        h = ad.layer_norm(resid, params[p + "ln2_g"], params[p + "ln2_b"])
        h = ad.gelu(ad.add(ad.matmul(h, params[p + "w1"]), params[p + "b1"]))
        resid = ad.add(resid, ad.add(ad.matmul(h, params[p + "w2"]), params[p + "b2"]))
        if l < config.layer_count - 1:
            stack.append(resid)
    stack.append(ad.layer_norm(resid, params["lnf_g"], params["lnf_b"]))
    return stack


def _to_heads(x: ad.Tensor, G: int, H: int) -> ad.Tensor:
    """(G*T, d) or (G, T, d) rows -> (G, H, T, d/H) heads."""
    shape = x.shape

    def vjp(g):
        return (g.transpose(0, 2, 1, 3).reshape(shape),)

    return ad.Tensor(x.data.reshape(G, -1, H, shape[-1] // H).transpose(0, 2, 1, 3), (x,), vjp)


def _from_heads(x: ad.Tensor) -> ad.Tensor:
    """(G, H, R, dh) heads -> (G*R, H*dh) rows."""
    G, H, R, dh = x.shape

    def vjp(g):
        return (g.reshape(G, R, H, dh).transpose(0, 2, 1, 3),)

    return ad.Tensor(x.data.transpose(0, 2, 1, 3).reshape(G * R, H * dh), (x,), vjp)


# ---------------------------------------------------------------------------
# latent fill (training-time autoregressive slot binding)
# ---------------------------------------------------------------------------

def fill_latents(layout: SequenceLayout, mask: AttentionMaskSpec, params: dict,
                 config: ModelConfig) -> list:
    """Bind every latent slot autoregressively.

    Slot 0 of a segment reads the layer-L state at its latent-start marker,
    slot k the state at slot k-1. One `ForwardCache` serves all slots: each
    slot runs a cached pass over the layout's prefix up to its source,
    only the rows the cache lacks, so each row runs once (a one-row step
    also reruns the row before it) and no row after the last source runs.
    A graph, if one is being built, carries through the cache. Prefix
    invariance gives every vector the bits of a full pass, unless a source
    sits at position 0: that first pass is one row, and takes the gemv
    path. Returns the produced vectors (graph nodes) in slot order; the
    layout's slots are left holding them.
    """
    cache = ForwardCache(config)
    produced = []
    for si, slot, pos in layout.latent_slots:
        src = layout.latent_source(si) if slot == 0 else pos - 1
        if src >= cache.length:
            t = src + 1
            forward(layout.prefix(t), AttentionMaskSpec(mask.mode, mask.allow[:t, :t]),
                    params, config, cache)
        vec = cache.final_row(src)
        layout.set_latent(si, slot, vec)
        produced.append(vec)
    return produced


def bind_use_sites(layout: SequenceLayout, produced: list) -> list:
    """Swap live latent contents for identity-wrapped copies.

    The identity nodes mark the final-pass use sites, so a gradient taken with
    respect to them excludes the production path through later slots.
    """
    sites = []
    i = 0
    for si, slot, _ in layout.latent_slots:
        u = ad.identity(produced[i])
        layout.set_latent(si, slot, u)
        sites.append(u)
        i += 1
    return sites


# ---------------------------------------------------------------------------
# sampling and decoding
# ---------------------------------------------------------------------------

def sample_token(logits: np.ndarray, temperature: float, rng: np.random.Generator | None):
    """Returns (token id, log-probability under the sampling distribution)."""
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    if temperature == 0:
        return int(np.argmax(logits)), 0.0
    z = logits / temperature
    z = z - z.max()
    p = np.exp(z)
    p /= p.sum()
    u = rng.random()
    tok = int(np.searchsorted(np.cumsum(p), u))
    tok = min(tok, len(p) - 1)
    return tok, float(np.log(p[tok]))


@dataclass
class TextStep:
    token: int
    logp: float
    forced: bool = False  # forced steps carry no ratio term


@dataclass
class LatentStep:
    vector: np.ndarray


@dataclass
class Trajectory:
    steps: list = field(default_factory=list)
    prompt_len: int = 0
    truncated: bool = False

    def latent_run_lengths(self) -> list:
        runs, cur = [], None
        for s in self.steps:
            if isinstance(s, LatentStep):
                cur = 0 if cur is None else cur
                cur += 1
            elif cur is not None:
                runs.append(cur)
                cur = None
        if cur is not None:
            runs.append(cur)
        return runs


_ID_LATENT_START = vocab.TOKEN_TO_ID[vocab.LATENT_START]
_ID_LATENT_END = vocab.TOKEN_TO_ID[vocab.LATENT_END]
_ID_EOS = vocab.TOKEN_TO_ID[vocab.EOS]


def decode_with_latents(prompt: SequenceLayout, k_latent: int, params: dict,
                        config: ModelConfig, temperature: float = 0.0,
                        rng: np.random.Generator | None = None,
                        max_new: int = 64):
    """Autoregressive decoding with fixed-length latent runs.

    Sampling a latent-start token opens a run of exactly `k_latent` latent
    steps, each feeding the previous position's layer-L state back in as the
    next input embedding; the latent-end token is then force-inserted, never
    sampled, while the `max_new` budget lasts. Returns (full layout,
    Trajectory); the trajectory is truncated unless it ended with EOS.

    The first pass runs the prompt into a `ForwardCache`; every later pass
    runs only the positions appended since, and gives the bits a full pass
    over the prefix would. This is `decode_group` with one generator.
    """
    return decode_group(prompt, k_latent, params, config, [rng], temperature, max_new)[0]


def decode_group(prompt: SequenceLayout, k_latent: int, params: dict, config: ModelConfig,
                 rngs: list, temperature: float = 0.0, max_new: int = 64) -> list:
    """Decode one sequence per generator in `rngs` from the same prompt, in
    lockstep; returns a (layout, Trajectory) per generator, in order.

    Each sequence samples from its own generator only, so it gets the bits
    of a lone `decode_with_latents` call with that generator. The prompt
    runs once into a `ForwardCache` whose rows every sequence copies; then
    each iteration advances every unfinished sequence by one cached step,
    all of them in one stacked pass (`_step`). Sequences that finish drop
    out of the stack.
    """
    if k_latent < 0:
        raise ValueError("k_latent must be >= 0")
    G, P = len(rngs), prompt.length
    rows = np.zeros((G, 2 * config.layer_count + 1, config.max_positions, config.hidden_dim))
    caches = [ForwardCache(config, rows[g]) for g in range(G)]
    layouts = [SequenceLayout(prompt.segments) for _ in range(G)]
    trajs = [Trajectory(prompt_len=P) for _ in range(G)]
    loops = [_decoding(layouts[g], trajs[g], k_latent, temperature, rngs[g], max_new)
             for g in range(G)]
    live = [g for g in range(G) if _resume(loops[g], None)]
    if live:
        with ad.no_grad():
            logits, stack = forward(prompt, build_attention_mask(prompt, MaskMode.CAUSAL),
                                    params, config, caches[0])
        rows[1:, :, :P] = rows[0, :, :P]
        for cache in caches:
            # a one-row pass takes the gemv path, and a full pass over a
            # longer prefix does not, so the first step reruns that row
            cache.length = P if P > 1 else 0
        outs = [(logits.data[-1], stack[-1].data[-1])] * len(live)
    while live:
        live = [g for g, out in zip(live, outs) if _resume(loops[g], out)]
        if live:
            outs = _step(live, layouts, caches, rows, params, config)
    return list(zip(layouts, trajs))


def _decoding(layout: SequenceLayout, traj: Trajectory, k_latent: int, temperature: float,
              rng, max_new: int):
    """One sequence's decoding loop, as a generator: each `yield` asks for a
    cached pass over `layout` and is sent that pass's last (logits row,
    final state)."""
    emitted = 0
    while emitted < max_new:
        logits, _ = yield
        tok, logp = sample_token(logits, temperature, rng)
        layout.append(text_segment(SegmentRole.PLAIN_TEXT, [tok]))
        traj.steps.append(TextStep(tok, logp))
        emitted += 1
        if tok == _ID_EOS:
            return
        if tok == _ID_LATENT_START:
            for _ in range(min(k_latent, max_new - emitted)):
                _, final = yield
                vec = final.copy()
                layout.append(latent_segment(1, [vec]))
                traj.steps.append(LatentStep(vec))
                emitted += 1
            if emitted < max_new:
                layout.append(text_segment(SegmentRole.PLAIN_TEXT, [_ID_LATENT_END]))
                traj.steps.append(TextStep(_ID_LATENT_END, 0.0, forced=True))
                emitted += 1
    traj.truncated = True


def _resume(loop, out) -> bool:
    """Send a pass's output to a decoding loop; False once the loop is done."""
    try:
        loop.send(out)
        return True
    except StopIteration:
        return False


def _step(live: list, layouts: list, caches: list, rows: np.ndarray, params: dict,
          config: ModelConfig) -> list:
    """One cached step of the `live` sequences: each runs its last two rows
    (after the prompt every step has a new row and reruns the one before
    it). A lone sequence steps through `forward`, and so does each sequence
    on the first step after a one-row prompt, whose cache holds no rows then.
    Several run as one stacked pass, each attending over its own keys and
    values in `rows[g]`, with zero rows padding it to the longest sequence;
    those columns get probability exactly 0. Logits come from one matmul
    per sequence over its own final rows, as in `forward`. Returns each
    sequence's last (logits row, final state)."""
    if len(live) == 1 or not caches[live[0]].length:
        outs = []
        for g in live:
            T = layouts[g].length
            first = T - 2 if caches[g].length else 0
            with ad.no_grad():
                logits, stack = forward(
                    layouts[g], AttentionMaskSpec(MaskMode.CAUSAL,
                                                  np.arange(T) <= np.arange(first, T)[:, None]),
                    params, config, caches[g])
            outs.append((logits.data[-1], stack[-1].data[-1]))
        return outs
    ends = np.array([layouts[g].length for g in live])
    T = int(ends.max())
    pos = (ends[:, None] - np.array([2, 1])).ravel()  # the two rows of each sequence
    allow = np.arange(T) <= pos[:, None]
    G = len(live)
    allow = np.broadcast_to(allow.reshape(G, 1, 2, T), (G, config.head_count, 2, T))
    latent_rows = np.concatenate([layouts[g].latent_mask[-2:] for g in live])
    seq = np.repeat(live, 2)
    block = slice(None) if G == len(rows) else np.asarray(live)

    def attend(i, node):
        rows[seq, i, pos] = node.data
        return ad.constant(rows[block, i, :T])

    with ad.no_grad():
        x0 = _embed([(layouts[g], layouts[g].length - 2) for g in live], params, config)
        final = _blocks(x0, latent_rows, allow, params, config, attend)[-1].data
    top = 2 * config.layer_count
    rows[seq, top, pos] = final
    outs = []
    for j, g in enumerate(live):
        caches[g].length = int(ends[j])
        logits = rows[g, top, :ends[j]] @ params["w_out"].data
        outs.append((logits[-1], final[2 * j + 1]))
    return outs


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    config: ModelConfig
    stage: str
    step: int
    seed: int
    params: dict  # name -> Tensor


STAGE_LABELS = ("base", "warmup", "stage2", "sft", "rl")


def save_checkpoint(ckpt: Checkpoint, path):
    shapes = param_shapes(ckpt.config)
    if list(shapes) != list(ckpt.params):
        raise ValueError("checkpoint parameters do not match the declared order")
    lines = [f"{k}={v}" for k, v in ckpt.config.to_manifest().items()]
    lines += [f"stage={ckpt.stage}", f"step={ckpt.step}", f"seed={ckpt.seed}"]
    blob = b"".join(np.ascontiguousarray(ckpt.params[n].data, dtype="<f8").tobytes()
                    for n in shapes)
    with open(path, "wb") as f:
        f.write(("\n".join(lines) + "\n---\n").encode())
        f.write(blob)


class CheckpointError(ValueError):
    """A checkpoint file that does not hold what `save_checkpoint` writes."""


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint, checking its header keys, stage label and blob
    length before any parameter is read; errors name the file and field."""

    def bad(field: str, why: str) -> CheckpointError:
        return CheckpointError(f"{path}: checkpoint field '{field}': {why}")

    with open(path, "rb") as f:
        raw = f.read()
    head, sep, blob = raw.partition(b"\n---\n")
    if not sep:
        raise bad("header", "no '---' line ends the header")
    try:
        lines = head.decode().splitlines()
    except UnicodeDecodeError:
        raise bad("header", "not UTF-8 text") from None
    meta = {}
    for line in lines:
        key, eq, value = line.partition("=")
        if not eq:
            raise bad("header", f"line {line!r} is not key=value")
        if key in meta:
            raise bad(key, "repeated")
        meta[key] = value
    keys = [*ModelConfig().to_manifest(), "stage", "step", "seed"]
    odd = sorted(set(keys) ^ set(meta))
    if odd:
        raise bad(odd[0], "missing" if odd[0] in keys else "unknown key")
    if meta["stage"] not in STAGE_LABELS:
        raise bad("stage", f"{meta['stage']!r} is not one of {', '.join(STAGE_LABELS)}")
    ints = {}
    for key in keys:
        if key != "stage":
            try:
                ints[key] = int(meta[key])
            except ValueError:
                raise bad(key, f"{meta[key]!r} is not an integer") from None
    try:
        config = ModelConfig.from_manifest({k: ints[k] for k in ModelConfig().to_manifest()})
    except (ValueError, ZeroDivisionError) as e:
        raise bad("config", str(e)) from None
    shapes = param_shapes(config)
    expected = 8 * sum(int(np.prod(shape)) for shape in shapes.values())
    if len(blob) != expected:
        raise bad("blob", f"{len(blob)} bytes, expected {expected} for this config")
    params = {}
    offset = 0
    for name, shape in shapes.items():
        n = int(np.prod(shape))
        arr = np.frombuffer(blob, dtype="<f8", count=n, offset=offset).reshape(shape)
        params[name] = ad.parameter(name, arr.copy())
        offset += n * 8
    return Checkpoint(config, meta["stage"], ints["step"], ints["seed"], params)
