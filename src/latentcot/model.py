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
from dataclasses import asdict, dataclass, field, fields

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


# Tuples, not sets: membership then compares identities and never calls the
# members' Python-level `Enum.__hash__`, on every segment of every pass.
TEXT_ROLES = (SegmentRole.QUESTION_TEXT, SegmentRole.OBSERVATION_TEXT,
              SegmentRole.PLAIN_TEXT, SegmentRole.ANSWER)
IMAGE_ROLES = (SegmentRole.QUESTION_IMAGE, SegmentRole.AUX_IMAGE)


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
        for name in ("layer_count", "hidden_dim", "head_count", "max_positions"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1")
        if self.hidden_dim % self.head_count:
            raise ValueError("hidden_dim must be divisible by head_count")
        if self.patch_dim != 1:
            raise ValueError("only single-cell patches are supported")


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
        """Position whose final state seeds slot 0 of latent segment `si`:
        the row before the segment, or before the auxiliary image right
        before it. This is decoding's rule (a latent step at position p
        reads row p - 1) with the stage-2 aux image skipped."""
        if si > 0 and self.segments[si - 1].role is SegmentRole.AUX_IMAGE:
            si -= 1
        if self.seg_starts[si] == 0:
            raise LayoutError("latent segment at sequence start has no source position")
        return self.seg_starts[si] - 1

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


def build_attention_mask(layout: SequenceLayout, mode: MaskMode) -> np.ndarray:
    """The (T, T) bool mask: allow[q, k] says whether position q sees key k."""
    T = layout.length
    allow = np.tri(T, dtype=bool)
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
    return allow


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
    """`embed_layout` of each (layout, start) in `parts`, stacked in order.
    The text rows of all parts take one `tok_emb` gather and the positions
    one `pos_emb` gather; image and latent rows are placed among the text
    rows in position order."""
    d, V = config.hidden_dim, config.vocab_size
    ids, blocks, positions = [], [], []
    text_at, other_at = [], []  # output rows of the text ids and of the other blocks
    for layout, start in parts:
        if layout.length > config.max_positions:
            raise LayoutError(f"layout length {layout.length} exceeds max_positions "
                              f"{config.max_positions}")
        n = sum(map(len, positions))
        positions.append(np.arange(start, layout.length))
        first = max(bisect.bisect_right(layout.seg_starts, start) - 1, 0)
        starts = layout.seg_starts
        for si in range(first, len(starts)):
            seg = layout.segments[si]
            a = starts[si]
            b = starts[si + 1] if si + 1 < len(starts) else layout.length
            if b <= max(a, start):
                continue
            skip = max(start - a, 0)
            at = range(n + a + skip - start, n + b - start)
            if seg.role in TEXT_ROLES:
                tokens = seg.tokens[skip:]
                if min(tokens) < 0 or max(tokens) >= V:
                    raise LayoutError(f"unknown token id in segment: {seg.tokens}")
                ids += tokens
                text_at += at
                continue
            other_at += at
            if seg.role in IMAGE_ROLES:
                if seg.feats.shape[1] != config.patch_features:
                    raise LayoutError(f"patch grid feature size {seg.feats.shape[1]} "
                                      f"!= {config.patch_features}")
                proj = ad.matmul(seg.feats, params["patch_proj"])
                blocks.append(ad.gather_rows(proj, np.arange(skip, b - a)) if skip else proj)
                continue
            for v in seg.latents[skip:]:
                if v is None:
                    blocks.append(np.zeros((1, d)))
                elif isinstance(v, ad.Tensor):
                    blocks.append(ad.reshape(v, (1, d)))
                else:
                    blocks.append(np.asarray(v, dtype=np.float64).reshape(1, d))
    if not (ids or blocks):
        raise LayoutError("empty layout")
    if ids:
        blocks.insert(0, ad.gather_rows(params["tok_emb"], ids))
    if len(blocks) == 1:
        x = blocks[0]
    else:  # stacked as the text rows, then the others in order
        x = ad.concat_rows(blocks, text_at + other_at if ids else None)
    return ad.add(x, ad.gather_rows(params["pos_emb"], np.concatenate(positions)))


def _select_rows(a, b, row_mask: np.ndarray) -> ad.Tensor:
    """Row-exact select: rows of `b` where row_mask, rows of `a` elsewhere."""
    m = row_mask[:, None]
    out = np.where(m, ad.value(b), ad.value(a))
    return ad.node(out, (a, b), lambda g: (g * ~m, g * m))


class ForwardCache:
    """What `forward` keeps of the rows it has run, for one growing sequence:
    each layer's attention keys and values.

    `rows[2l]` and `rows[2l + 1]` hold layer l's keys and values; each spans
    `max_positions` rows, the first `length` valid. Beside the buffers the
    cache keeps only, per buffer, the graph node that holds its valid rows
    (`nodes`, None until a graph pass). Each pass's node chains to the one
    before it, so a row's gradient goes down the chain to the pass that
    first ran it; a pass that reruns the row before its new one writes that
    row's bits again but passes its gradient down the chain too. A pass
    under `no_grad` writes the buffers and reads views of them, and makes
    no node; a graph pass after it reads the rows it wrote as constants.

    The buffers start zero-filled, and `rows` may be handed in (a view of a
    group's shared buffer): a group step reads the rows past a sequence's
    length as padded keys and values of zero probability, and 0 x NaN is NaN.
    """

    def __init__(self, config: ModelConfig, rows: np.ndarray | None = None):
        count = 2 * config.layer_count
        self.length = 0
        self.rows = np.zeros((count, config.max_positions, config.hidden_dim)) \
            if rows is None else rows
        self.nodes = [None] * count

    def store(self, i: int, new, ran: int) -> ad.Tensor:
        """Write this pass's rows of buffer `i`, which start at row `ran`
        (at most `length`), and return rows 0..T-1 of it: a plain view when
        `new` is an array (under `no_grad`), else one node whose parents are
        the new rows and the node that held the rows before them."""
        own = self.length
        new_rows = ad.value(new)
        T = ran + len(new_rows)
        self.rows[i, ran:T] = new_rows
        held = self.rows[i, :T]
        if not isinstance(new, ad.Tensor):
            self.nodes[i] = None
            return held

        def vjp(g):
            fresh = g[ran:]
            if ran < own:
                fresh = fresh.copy()
                fresh[:own - ran] = 0.0
            return fresh, g[:own]

        before = self.rows[i, :own] if self.nodes[i] is None else self.nodes[i]
        self.nodes[i] = ad.node(held, (new, before), vjp)
        return self.nodes[i]


# The vocabulary product runs against `w_out` padded with zero columns to a
# multiple of this width. At the 41-column width OpenBLAS rounds a row by its
# place in the row blocking; at 48 columns a row keeps its bits in any
# product, as at the hidden widths.
HEAD_COLUMNS = 16


def _head(final, w_out) -> ad.Tensor:
    """Logits `final @ w_out` as one node: the product runs by
    `ad.matmul_array` against `w_out` padded with zero columns to a multiple
    of `HEAD_COLUMNS`, and the padded columns are dropped. Every row gets the
    bits it has in any other product of this helper. The vjp pads the
    gradient with zero columns and takes both products by `ad.matmul`'s
    rule."""
    f, w = ad.value(final), ad.value(w_out)
    d, V = w.shape
    if f.ndim != 2 or f.shape[1] != d:
        raise ad.ShapeError("head", f.shape, w.shape)
    wide = np.concatenate([w, np.zeros((d, -V % HEAD_COLUMNS))], axis=1)
    out = ad.matmul_array(f, wide)[:, :V]

    def vjp(g):
        g = np.concatenate([g, np.zeros((len(g), wide.shape[1] - V))], axis=1)
        return ad.matmul_array(g, wide.T), (f.T @ g)[:, :V]

    return ad.node(out, (final, w_out), vjp)


def forward(layout: SequenceLayout, mask: np.ndarray, params: dict,
            config: ModelConfig, cache: ForwardCache | None = None):
    """Pre-norm transformer pass.

    Returns (logits (R, V), stack) over the R rows the pass runs, where
    stack[0] is the input embedding, stack[l] the residual after block l,
    and stack[L] the post-final-norm state (the vector that gets fed back
    during latent decoding).

    The pass is prefix-invariant: rows of a pass over a prefix equal the
    same rows of a longer pass, bit for bit, logits included (softmax
    denominators are summed over a fixed `max_positions` width, and `_head`
    gives a logits row the same bits in any product). That makes a cached
    pass exact.

    With a `cache` the layout must extend the sequence the cache holds. The
    pass runs only the rows the cache lacks, attending to the cached keys
    and values, and stores the new keys and values; its logits and stack
    hold just those rows. `mask` may then hold only the last rows of the
    (T, T) mask, down to the first row the pass runs. A single new row runs
    beside the row before it, so that every product has two rows and none
    pays for `ad.matmul`'s one-row padding. With a graph, the cached rows
    are nodes, so backward reaches the passes that made them. Under
    `no_grad` every op of the pass returns a plain array, and the logits and
    each stack entry are wrapped in a parentless node at the end.
    """
    T = layout.length
    start = 0
    if cache is not None:
        if T <= cache.length:
            raise LayoutError(f"layout length {T} does not extend the {cache.length} cached rows")
        start = max(min(cache.length, T - 2), 0)
    R = T - start
    if mask.shape[1:] != (T,) or not R <= mask.shape[0] <= T:
        raise LayoutError(f"mask shape {mask.shape} does not match layout length {T} "
                          f"with {R} rows to run")
    allow = mask[None, None, -R:].repeat(config.head_count, axis=1)
    x0 = embed_layout(layout, params, config, start)
    stack = _blocks(x0, layout.latent_mask[start:], allow, params, config,
                    (lambda i, rows: rows) if cache is None
                    else (lambda i, rows: cache.store(i, rows, start)))
    logits = ad.as_tensor(_head(stack[-1], params["w_out"]))
    stack = [ad.as_tensor(x) for x in stack]
    if cache is not None:
        cache.length = T
    return logits, stack


def forward_group(layouts: list, params: dict, config: ModelConfig):
    """Causal full passes over G layouts as one pass through the blocks,
    which runs each distinct row once.

    A layout's row r is the same as an earlier layout's row r when their
    input rows 0..r are made of the same things (`_row_keys`): then it has
    the same embedded bits, latent flag and attention context. Each layout
    walks its keys down one prefix trie; a key the trie lacks makes a new
    pool row, so a layout adds the rows from its first unshared position
    on, and the U distinct rows form one pool: embedded with one `tok_emb`
    gather, and run through the layer norms, projections, MLP, final norm
    and head once. Attention lays the pool out in blocks (the rows all
    layouts share, then each layout's own rows); a block attends over its
    layout's rows in position order, padded with zero rows to the longest
    length, and backward hands each shared row's gradient back once
    (`ad.attention`'s `pool`).

    Returns (logits (U, V), final (U, d), at), where `at[g]` holds the pool
    row of each of layout g's positions: every row has the bits of a lone
    `forward` (the row-wise ops and `_head` round a row alike in any
    stack). Under `no_grad` the pass runs on plain arrays and both are
    wrapped at the end, as in `forward`."""
    T = max(layout.length for layout in layouts)
    trie, at, starts, U = {}, [], [], 0  # trie: key -> (pool row, children)
    for layout in layouts:
        node, rows, added = trie, [], U
        for key in _row_keys(layout):
            if key not in node:
                node[key] = (U, {})
                U += 1
            row, node = node[key]
            rows.append(row)
        at.append(np.array(rows, dtype=np.int64))
        starts.append(layout.length - (U - added))
    del trie  # it holds a key per pool row, vector bytes too: not kept through the pass
    x0 = _embed(list(zip(layouts, starts)), params, config)
    shared = min(starts[1:], default=0)  # the rows all layouts share
    blocks = [(0, 0, shared)] if shared else []  # (layout, first query row, end)
    blocks += [(g, max(start, shared), layout.length)
               for g, (layout, start) in enumerate(zip(layouts, starts))
               if max(start, shared) < layout.length]
    R = max(end - first for _, first, end in blocks)
    rows, key_rows = np.full((len(blocks), R), U), np.full((len(blocks), T), U)
    query_at = np.zeros((len(blocks), R), dtype=np.int64)
    for b, (g, first, end) in enumerate(blocks):
        rows[b, :end - first] = at[g][first:end]
        key_rows[b, :end] = at[g][:end]
        query_at[b, :end - first] = np.arange(first, end)
    allow = np.broadcast_to((np.arange(T) <= query_at[..., None])[:, None],
                            (len(blocks), config.head_count, R, T))
    latent_rows = np.concatenate([layout.latent_mask[start:]
                                  for layout, start in zip(layouts, starts)])
    final = _blocks(x0, latent_rows, allow, params, config, lambda i, rows: rows,
                    (rows, key_rows))[-1]
    return ad.as_tensor(_head(final, params["w_out"])), ad.as_tensor(final), at


def _row_keys(layout: SequenceLayout) -> list:
    """One key per position for what its input row is made of: a text row's
    token id, an image row's feature bytes, a latent row's vector bytes (or
    the node itself when the slot holds a graph node, so that rows sharing
    it share its gradient)."""
    keys = []
    for seg in layout.segments:
        if seg.role in TEXT_ROLES:
            keys += seg.tokens
        elif seg.role in IMAGE_ROLES:
            keys += [("image", f.tobytes()) for f in seg.feats]
        else:
            keys += [("latent", v if v is None or isinstance(v, ad.Tensor)
                      else np.asarray(v, dtype=np.float64).tobytes()) for v in seg.latents]
    return keys


def _blocks(x0: ad.Tensor, latent_rows: np.ndarray, allow: np.ndarray, params: dict,
            config: ModelConfig, attend, pool: tuple | None = None) -> list:
    """The transformer blocks and final norm, over the rows of G sequences
    stacked as one (G*R, d) input `x0`, R rows each. `allow` (G, H, R, T)
    says which of its sequence's T key positions each row sees.
    `attend(i, rows)` takes the new rows' keys (i = 2l) or values (i = 2l+1)
    of layer l and returns the (G*T, d) or (G, T, d) rows they attend over.
    With `pool` (`ad.attention`'s index maps), `x0` is instead a pool of
    distinct rows that the G blocks are laid out over.
    Every op but attention is row-wise, so a row gets the same bits in any
    stack. Under `no_grad` every entry is a plain array. Returns the stack:
    x0, each block's residual but the last, and the post-final-norm rows."""
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
        q = ad.matmul(q_in, params[p + "wq"])
        k = attend(2 * l, ad.matmul(kv_in, params[p + "wk"]))
        v = attend(2 * l + 1, ad.matmul(kv_in, params[p + "wv"]))
        attn = ad.attention(q, k, v, allow, sum_buffer, G, H, scale, pool)
        resid = ad.add(resid, ad.matmul(attn, params[p + "wo"]))
        h = ad.layer_norm(resid, params[p + "ln2_g"], params[p + "ln2_b"])
        resid = ad.add(resid, ad.mlp(h, params[p + "w1"], params[p + "b1"],
                                     params[p + "w2"], params[p + "b2"]))
        if l < config.layer_count - 1:
            stack.append(resid)
    stack.append(ad.layer_norm(resid, params["lnf_g"], params["lnf_b"]))
    return stack


# ---------------------------------------------------------------------------
# latent fill (training-time autoregressive slot binding)
# ---------------------------------------------------------------------------

def fill_latents(layout: SequenceLayout, mask: np.ndarray, params: dict,
                 config: ModelConfig) -> list:
    """Bind every latent slot autoregressively.

    Every slot reads the final state of the row before it, as in decoding:
    slot 0 of a segment the row `latent_source` names, slot k the row of
    slot k-1. Each source lies at or after the rows the cache holds, so one
    `ForwardCache` serves all slots with one cached pass per slot, over the
    layout's prefix up to and including its source: only the rows the cache
    lacks run (a one-row step also reruns the row before it), and no row
    after the last source runs. A slot's vector is the last final-state row
    of its pass. A graph, if one is being built, carries through the cache.
    Prefix invariance gives every vector the bits of a full pass. Returns
    the produced vectors in slot order, graph nodes or, under `no_grad`,
    plain arrays; the layout's slots are left holding them.
    """
    cache = ForwardCache(config)
    produced = []
    for si, slot, pos in layout.latent_slots:
        t = (layout.latent_source(si) if slot == 0 else pos - 1) + 1
        _, stack = forward(layout.prefix(t), mask[:t, :t], params, config, cache)
        vec = ad.get_row(stack[-1], -1)
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
    """Returns (token id, log-probability under the sampling distribution).
    The row is scaled by 1 / temperature and the log-probability taken by
    `ad.log_prob_row`, as `rl.score_group` does, so an on-policy text ratio
    is exactly 1."""
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    if temperature == 0:
        return int(np.argmax(logits)), 0.0
    z = logits * (1.0 / temperature)
    p = np.exp(z - z.max())
    p /= p.sum()
    u = rng.random()
    tok = int(np.searchsorted(np.cumsum(p), u))
    tok = min(tok, len(p) - 1)
    return tok, float(ad.value(ad.log_prob_row(z, tok)))


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
    rows = np.zeros((G, 2 * config.layer_count, config.max_positions, config.hidden_dim))
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
        for cache in caches[1:]:
            cache.length = P
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
    it). A lone sequence steps through `forward`. Several run as one
    stacked pass, each attending over its own keys and values in `rows[g]`,
    with zero rows padding it to the longest sequence; those columns get
    probability exactly 0. Logits come from one `_head` product over the
    stacked rows. Returns each sequence's last (logits row, final state)."""
    if len(live) == 1:
        g, = live
        T = layouts[g].length
        with ad.no_grad():
            logits, stack = forward(layouts[g], np.arange(T) <= np.arange(T - 2, T)[:, None],
                                    params, config, caches[g])
        return [(logits.data[-1], stack[-1].data[-1])]
    ends = np.array([layouts[g].length for g in live])
    T = int(ends.max())
    pos = (ends[:, None] - np.array([2, 1])).ravel()  # the two rows of each sequence
    allow = np.arange(T) <= pos[:, None]
    G = len(live)
    allow = allow.reshape(G, 1, 2, T).repeat(config.head_count, axis=1)
    latent_rows = np.concatenate([layouts[g].latent_mask[-2:] for g in live])
    seq = np.repeat(live, 2)
    block = slice(None) if G == len(rows) else np.asarray(live)

    def attend(i, new):
        rows[seq, i, pos] = new
        return rows[block, i, :T]

    with ad.no_grad():
        x0 = _embed([(layouts[g], layouts[g].length - 2) for g in live], params, config)
        final = _blocks(x0, latent_rows, allow, params, config, attend)[-1]
        logits = _head(final, params["w_out"])
    for j, g in enumerate(live):
        caches[g].length = int(ends[j])
    return [(logits[2 * j + 1], final[2 * j + 1]) for j in range(G)]


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
    for name in shapes:
        if not np.isfinite(ckpt.params[name].data).all():
            raise ValueError(f"{path}: parameter {name} holds non-finite values; not saved")
    lines = [f"{k}={v}" for k, v in asdict(ckpt.config).items()]
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
    length before any parameter is read, and each parameter for non-finite
    values; errors name the file and field."""

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
    sizes = [f.name for f in fields(ModelConfig)]
    keys = [*sizes, "stage", "step", "seed"]
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
        config = ModelConfig(**{k: ints[k] for k in sizes})
    except ValueError as e:
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
        if not np.isfinite(arr).all():
            raise bad(name, "holds non-finite values")
        params[name] = ad.parameter(name, arr.copy())
        offset += n * 8
    return Checkpoint(config, meta["stage"], ints["step"], ints["seed"], params)
