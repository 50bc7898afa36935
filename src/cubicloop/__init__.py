"""Exact construction of the 243-element non-associative commutative
Moufang loop of point classes mod pi^3 on the diagonal cubic surface
T0^3 + T1^3 + T2^3 + theta*T3^3 = 0 over Q3(theta)."""

from .eisenstein import PI, THETA, RingElt, nu
from .surface import LambdaParams, ProjPoint, chord, enumerate_classes, normalize
from .moufang import build_class_table, loop_from

__all__ = [
    "PI",
    "THETA",
    "RingElt",
    "nu",
    "LambdaParams",
    "ProjPoint",
    "chord",
    "enumerate_classes",
    "normalize",
    "build_class_table",
    "loop_from",
]
