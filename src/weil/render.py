"""Canonical text rendering for Weil-algebra elements.

Terms are sorted by (degree, monomial exponents, index tuple) so output
is byte-stable.  Scalar matrix parts fold into a leading coefficient
(1x1 endomorphisms render as bare scalars); genuine matrix parts render
as nested brackets after a tensor sign.  The renderings parse back
through the expression grammar, which treats the tensor sign as a
product and supports generator powers.
"""

from __future__ import annotations

from .linalg import format_ratio

TENSOR = " ⊗ "


def _gen_string(letter, mono):
    parts = []
    for i, k in enumerate(mono):
        if k == 1:
            parts.append(f"{letter}{i + 1}")
        elif k > 1:
            parts.append(f"{letter}{i + 1}^{k}")
    return "*".join(parts)


def _index_string(letter, indices):
    return "*".join(f"{letter}{i + 1}" for i in indices)


def _signed_term(mono_str, mat, endo_dim):
    """Return (negative, body) for one term."""
    c = mat._scalar() if mat.rows else None  # c over mat.den, coprime
    if c is None:
        body = (mono_str + TENSOR if mono_str else "") + mat.render()
        return False, body
    neg = c < 0
    mag = -c if neg else c
    coeff = "" if mag == mat.den == 1 else format_ratio(mag, mat.den)
    prefix = "*".join(p for p in (coeff, mono_str) if p)
    if endo_dim == 1:
        return neg, prefix or "1"
    if mono_str:
        return neg, prefix + TENSOR + "I"
    return neg, (prefix + "*I") if prefix else "I"


def _join(parts):
    if not parts:
        return "0"
    out = []
    for i, (neg, body) in enumerate(parts):
        if i == 0:
            out.append(("-" if neg else "") + body)
        else:
            out.append((" - " if neg else " + ") + body)
    return "".join(out)


def render(x) -> str:
    even, odd = x.LETTERS
    d = x.rep.dim
    keyed = sorted(x.terms.items(),
                   key=lambda kv: (2 * sum(kv[0][0]) + len(kv[0][1]), kv[0][0], kv[0][1]))
    parts = []
    for (s, e), mat in keyed:
        mono = x.JOINER.join(p for p in (_gen_string(even, s), _index_string(odd, e)) if p)
        parts.append(_signed_term(mono, mat, d))
    return _join(parts)
