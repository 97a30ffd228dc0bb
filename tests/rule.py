"""The rule model: a hand-set ``TinyDenoiser`` that commits in parallel and reads stale K/V.

Truth is a rule over absolute positions.  Position i is *easy* when
``i % 4 == 0``: its positional embedding carries a seeded guess, which is its
truth.  A position with ``i % 4 == 3`` and ``i + 1 < n`` is *right-only* with
probability ``right``: its truth is the successor (``+1 mod 16``) of token
i+1.  Every other position is *left*: its truth is the successor of token i-1.

Two attention layers carry token i-1 to row i.  Layer 0 attends from row j to
row j + reach - 1 and copies that row's token into a scratch block A; layer 1
attends from row i to row i - reach and copies its A into a neighbour block,
which the head maps to the successor's logit.  So row i reads token i-1
through row i - reach's layer-1 keys and values, which go stale when token
i-1 commits after that row's last recompute: a cache's prefix window must
reach ``reach`` rows left of the block.  A right-only row carries the offset
from its own positional code to that of row i+2, which only layer 1's query
reads, so it reads token i+1 the same way.  An unknown neighbour (the mask)
leaves a flat row; a guess outvotes a committed neighbour.

With ``decoy`` > 0, each left position i >= prompt_len carries, with that
probability, a decoy: a wrong token whose logit only the head reads from
i's positional embedding, with a gain drawn from U(1, 4).  While token i-1 is
masked the decoy is row i's only evidence, and a low enough tau commits it;
once i-1 commits, the neighbour's logit outweighs it.

Dims of the width-196 residual stream: token one-hot 0-16, neighbour 17-33,
positional code 34-97, guess 98-113, A 114-130, right-only offset 131-194;
with decoys the width is 212, and 196-211 hold the decoy block.
"""

import numpy as np

from dsb.denoiser import DenoiserConfig, TinyDenoiser, _param_shapes

V = 17  # 16 real tokens and the mask
TOK, NB, GUESS, A, DECOY = 0, 17, 98, 114, 196  # first dims of the one-hot blocks
FREQS = 16  # each takes (cos, sin, -cos, -sin) in the positional code
POS, OFFSET = slice(34, 34 + 4 * FREQS), slice(131, 131 + 4 * FREQS)
BETA = 120.0  # query gain, before the forward's own log2(e)/sqrt(dh)
NB_GAIN, GUESS_GAIN = 40.0, 250.0


def _code(pos, omega):
    """The positional code of ``pos``: 64 dims, amplitude 1."""
    angle = np.multiply.outer(pos, omega)
    c, s = np.cos(angle), np.sin(angle)
    return np.stack([c, s, -c, -s], axis=-1).reshape(*np.shape(pos), 4 * FREQS)


def _rotation(shift, omega):
    """The (64, 64) map taking position p's code to position p + shift's, as ``code @ R``."""
    r = np.zeros((4 * FREQS, 4 * FREQS))
    for f, w in enumerate(omega):
        c, s = np.cos(w * shift), np.sin(w * shift)
        for i in (4 * f, 4 * f + 2):  # the (cos, sin) pair and its negation
            r[i:i + 2, i:i + 2] = [[c, s], [-s, c]]
    return r


def _spike(dim, d, gain=4.0):
    """``gain·(e_dim − 1/d)`` in width ``d``: ``gain`` at ``dim``, less ``gain/d`` on every dim, so it has mean zero."""
    return gain * (np.eye(d)[dim] - 1 / d)


def rule_model(reach, right=0.0, decoy=0.0, seed=0, max_len=264, prompt_len=8):
    """The rule model over ``max_len`` positions and its truth there, as ``(model, truth)``.

    ``model.truth`` is the response's slice, ``truth[prompt_len:]``; decode
    with the prompt ``truth[:prompt_len]``.  ``prompt_len % 4 == 0`` keeps the
    response's truth independent of the prompt.
    """
    n, d = max_len, DECOY + 16 if decoy > 0 else DECOY
    rng = np.random.default_rng(seed)
    idx = np.arange(n)
    right_only = rng.random(n) < right if right > 0 else np.zeros(n, dtype=bool)
    right_only &= (idx % 4 == 3) & (idx + 1 < n)
    guess = rng.integers(0, 16, n)
    truth = np.zeros(n, dtype=np.int64)
    for i in range(n):
        if i % 4 == 0:
            truth[i] = guess[i]
        elif right_only[i]:
            truth[i] = (guess[i + 1] + 1) % 16
        else:
            truth[i] = (truth[i - 1] + 1) % 16
    left = (idx % 4 != 0) & ~right_only & (idx >= prompt_len)
    decoys = {}  # position -> (token, gain), drawn last so no draw above moves
    for i in np.flatnonzero(left):
        if rng.random() < decoy:
            other = rng.integers(0, 15)
            decoys[i] = other + (other >= truth[i]), rng.uniform(1, 4)

    omega = 2 * np.pi / (4 * (2 * max_len / 4) ** (np.arange(FREQS) / (FREQS - 1)))  # periods 4 .. 2n
    config = DenoiserConfig(vocab_size=V, width=d, heads=1, depth=2, max_len=n, seed=seed)
    p = {name: np.zeros(shape) for name, shape in _param_shapes(config)}
    p["tok_emb"] = _spike(TOK + np.arange(V), d)
    pe = p["pos_emb"]
    pe[:, POS] = _code(idx, omega)
    pe[::4] += _spike(GUESS + guess[::4], d)
    for i, (token, gain) in decoys.items():
        pe[i] += _spike(DECOY + token, d, gain)
    pe[right_only, OFFSET] = _code(idx[right_only] + 2, omega) - _code(idx[right_only], omega)
    for layer, shift, src, dst in ((0, reach - 1, TOK, A), (1, -reach, A, NB)):
        l = f"l{layer}."
        p[l + "wq"][POS, POS] = BETA * _rotation(shift, omega)
        if layer == 1:
            p[l + "wq"][OFFSET, POS] = BETA * _rotation(shift, omega)
        p[l + "wk"][POS, POS] = np.eye(4 * FREQS)
        p[l + "wv"][src + np.arange(V), dst + np.arange(V)] = 1
        p[l + "wo"] = np.eye(d)
        p[l + "ln1_g"] = p[l + "ln2_g"] = np.ones(d)
    p["ln_f_g"] = np.ones(d)
    p["w_out"][NB + np.arange(16), (np.arange(16) + 1) % 16] = NB_GAIN
    p["w_out"][GUESS + np.arange(16), np.arange(16)] = GUESS_GAIN
    if decoy > 0:
        p["w_out"][DECOY + np.arange(16), np.arange(16)] = 1

    model = TinyDenoiser(config, {name: a.astype(np.float32) for name, a in p.items()})
    model.truth = truth[prompt_len:]
    return model, truth
