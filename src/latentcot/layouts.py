"""Builders from task samples to model sequence layouts.

Observation delimiter tokens exist in the dataset records but are stripped
from the sequences themselves; the builders convert them into explicit
observation positions instead. A from-scratch model has no prior to decode
across tokens that are never training targets, so any token a rollout must
produce is either a genuine target or force-inserted by the decoder.

Question images are embedded pooled (2x2 feature averaging), auxiliary images
at full resolution with absolute grid coordinates in their patch features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import vocab
from .model import (MaskMode, SegmentRole, SequenceLayout, image_segment,
                    latent_segment, text_segment)
from .tasks import ImageSeg, ToySample

_SYM_INDEX = {s: i for i, s in enumerate(vocab.CELL_SYMBOLS)}
_NSYM = len(vocab.CELL_SYMBOLS)


def cell_features(sym: str, r: int, c: int) -> np.ndarray:
    f = np.zeros(vocab.PATCH_FEATURES)
    f[_SYM_INDEX[sym]] = 1.0
    f[_NSYM + r] = 1.0
    f[_NSYM + vocab.MAX_GRID + c] = 1.0
    return f


def grid_features(grid, origin=(0, 0)) -> np.ndarray:
    """Full-resolution patch rows, one cell per patch, absolute coordinates."""
    r0, c0 = origin
    rows = [cell_features(s, r0 + i, c0 + j)
            for i, row in enumerate(grid) for j, s in enumerate(row)]
    return np.asarray(rows)


def pooled_grid_features(grid) -> np.ndarray:
    """Lossy question-image embedding: average cell features per 2x2 block."""
    full = grid_features(grid)
    R, C = len(grid), len(grid[0])
    if R % 2 or C % 2:
        raise ValueError(f"grid {R}x{C} not poolable by 2")
    full = full.reshape(R, C, -1)
    pooled = []
    for bi in range(R // 2):
        for bj in range(C // 2):
            block = full[2 * bi:2 * bi + 2, 2 * bj:2 * bj + 2]
            pooled.append(block.mean(axis=(0, 1)))
    return np.asarray(pooled)


_MASKED_TOKEN_IDS = {vocab.TOKEN_TO_ID[t] for t in
                     (vocab.LATENT_END, vocab.OBS_START, vocab.OBS_END)}
_LABELED_ROLES = {SegmentRole.PLAIN_TEXT, SegmentRole.OBSERVATION_TEXT, SegmentRole.ANSWER}


def label_mask_for(layout: SequenceLayout) -> np.ndarray:
    """Positions whose token is a next-token-prediction target."""
    mask = np.zeros(layout.length, dtype=bool)
    for t, role in enumerate(layout.roles):
        if role in _LABELED_ROLES and int(layout.token_at[t]) not in _MASKED_TOKEN_IDS:
            mask[t] = True
    mask[0] = False  # first position has no context
    return mask


@dataclass
class BuiltLayout:
    layout: SequenceLayout
    mask_mode: MaskMode
    label_mask: np.ndarray
    obs_positions: list


def _split_text(tokens, obs_flags):
    """Group a token stream into plain/observation segments."""
    segs = []
    cur_tokens, cur_obs = [], None
    for tok, is_obs in zip(tokens, obs_flags):
        if cur_obs is None or is_obs != cur_obs:
            if cur_tokens:
                segs.append((cur_obs, cur_tokens))
            cur_tokens, cur_obs = [], is_obs
        cur_tokens.append(tok)
    if cur_tokens:
        segs.append((cur_obs, cur_tokens))
    return segs


def _cot_stream(sample: ToySample):
    """Per cot segment: text -> (tokens, obs flags) with delimiters stripped,
    image -> the ImageSeg; observation flags derive from the delimiters."""
    out = []
    for seg in sample.cot:
        if isinstance(seg, ImageSeg):
            out.append(seg)
            continue
        tokens, flags, inside = [], [], False
        for tok in seg.tokens:
            if tok == vocab.OBS_START:
                inside = True
            elif tok == vocab.OBS_END:
                inside = False
            else:
                tokens.append(tok)
                flags.append(inside)
        out.append((tokens, flags))
    return out


def _append_text(segments, tokens, flags):
    for is_obs, toks in _split_text(tokens, flags):
        role = SegmentRole.OBSERVATION_TEXT if is_obs else SegmentRole.PLAIN_TEXT
        segments.append(text_segment(role, vocab.encode(toks)))


def build_prompt(sample: ToySample) -> SequenceLayout:
    return SequenceLayout([
        text_segment(SegmentRole.QUESTION_TEXT, vocab.encode(sample.question_tokens)),
        image_segment(SegmentRole.QUESTION_IMAGE, pooled_grid_features(sample.question_grid)),
    ])


def _aux_feats(seg: ImageSeg) -> np.ndarray:
    origin = (seg.bbox[0], seg.bbox[1]) if seg.bbox is not None else (0, 0)
    return grid_features(seg.grid, origin)


def build_interleaved(sample: ToySample, include_aux: bool = True) -> BuiltLayout:
    """Stage-1 style layout: raw interleaved CoT, no latent slots."""
    segments = list(build_prompt(sample).segments)
    for item in _cot_stream(sample):
        if isinstance(item, ImageSeg):
            if include_aux:
                segments.append(image_segment(SegmentRole.AUX_IMAGE, _aux_feats(item)))
        else:
            _append_text(segments, *item)
    segments.append(text_segment(SegmentRole.ANSWER, vocab.encode(sample.answer_tokens)))
    layout = SequenceLayout(segments)
    return BuiltLayout(layout, MaskMode.CAUSAL, label_mask_for(layout),
                       layout.positions(SegmentRole.OBSERVATION_TEXT))


def build_student(sample: ToySample, k_latent: int, with_aux: bool) -> BuiltLayout:
    """Latent-slot layout: each auxiliary image becomes a latent-start marker,
    the aux image itself (stage 2 only), k latent slots, and a forced
    latent-end token. Stage 3 drops the aux image and uses a causal mask."""
    lat_start = vocab.TOKEN_TO_ID[vocab.LATENT_START]
    lat_end = vocab.TOKEN_TO_ID[vocab.LATENT_END]
    segments = list(build_prompt(sample).segments)
    for item in _cot_stream(sample):
        if isinstance(item, ImageSeg):
            segments.append(text_segment(SegmentRole.PLAIN_TEXT, [lat_start]))
            if with_aux:
                segments.append(image_segment(SegmentRole.AUX_IMAGE, _aux_feats(item)))
            segments.append(latent_segment(k_latent))
            segments.append(text_segment(SegmentRole.PLAIN_TEXT, [lat_end]))
        else:
            _append_text(segments, *item)
    segments.append(text_segment(SegmentRole.ANSWER, vocab.encode(sample.answer_tokens)))
    layout = SequenceLayout(segments)
    mode = MaskMode.AUX_GATED if with_aux else MaskMode.CAUSAL
    return BuiltLayout(layout, mode, label_mask_for(layout),
                       layout.positions(SegmentRole.OBSERVATION_TEXT))


def build_teacher(sample: ToySample) -> BuiltLayout:
    """Frozen-teacher layout: plain interleaved CoT with aux images, causal."""
    return build_interleaved(sample, include_aux=True)
