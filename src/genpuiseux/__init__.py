"""Exact engine for generalized Puiseux expansions over rank-1 valued rings.
The root holds the README example's names; the rest live in their modules."""

from .coeff import FieldTower, WittRing
from .embed import expand
from .groups import GroupDescriptor
from .keypoly import ValPoly
from .series import SeriesRing
