"""Cochain suspension and the cone/collapse boundary transfer.

The suspension s sends a degree-k cochain c on X to the degree-(k+1)
cochain on Sigma X (or on C+X) whose value on (v0..vk, top) is c(v0..vk)
and which vanishes elsewhere; with the cone vertex ranked last, sd = ds on
the nose.  The boundary transfer t* s then lands relative cocycles on
(M, bd M); as a cochain it equals d of the extension by zero, which is the
form used to evaluate it (it makes sense even when no collapse map exists,
e.g. on prism cylinders).
"""

from __future__ import annotations

from typing import Union

from .cochains import Cochain, extend_by_zero, d, pullback
from .complexes import Collapse, Cone, ManifoldPair, SuspensionComplex
from .errors import ComplexMismatch, EmptyBoundary


def suspend(sx: Union[SuspensionComplex, Cone], c: Cochain) -> Cochain:
    """s(c) on the suspension or cone sx of c's complex: supported on the
    simplices (sigma, upper vertex) only."""
    if c.complex is not sx.base:
        raise ComplexMismatch("cochain does not live on the suspension base")
    vals = {s + (sx.upper,): v for s, v in c.values.items()}
    return Cochain._of(sx.complex, c.degree + 1, c.ring, vals)


def desuspend(sx: Union[SuspensionComplex, Cone], c: Cochain) -> Cochain:
    """Inverse of suspend on its image (drop the upper vertex)."""
    if c.complex is not sx.complex:
        raise ComplexMismatch("cochain does not live on the suspension")
    vals = {}
    for s, v in c.values.items():
        if s[-1] != sx.upper or len(s) == 1:
            raise ValueError("cochain is not in the image of the suspension")
        vals[s[:-1]] = v
    return Cochain._of(sx.base, c.degree - 1, c.ring, vals)


def boundary_transfer(m: ManifoldPair, u: Cochain) -> Cochain:
    """t* s u as a cochain on M: the coboundary of the extension by zero.

    For a cocycle u on bd M the result is a relative cocycle representing
    the connecting-map image of [u].
    """
    if m.closed:
        raise EmptyBoundary("boundary transfer needs a boundary")
    if u.complex is not m.boundary_complex():
        raise ComplexMismatch("cochain does not live on the boundary complex")
    return d(extend_by_zero(m.complex, u))


def collapse_transfer(col: Collapse, u: Cochain) -> Cochain:
    """t*(s u) computed literally through the collapse map."""
    return pullback(col.map, suspend(col.cone, u))
