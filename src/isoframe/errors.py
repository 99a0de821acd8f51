"""Exception hierarchy for the isoframe package.

Everything raised on purpose derives from IsoframeError so callers can
catch one type at an API boundary.  Input validation errors and internal
sanity failures are kept distinct: the former mean bad user data, the
latter mean a bug in this package.
"""

from __future__ import annotations


class IsoframeError(Exception):
    """Base class for all errors raised deliberately by isoframe."""


# ---------------------------------------------------------------------------
# framework construction / parsing


class DuplicateJoint(IsoframeError):
    """Two joints share the same coordinates (within the separation tolerance)."""


class DuplicateBar(IsoframeError):
    """The same unordered joint pair appears twice in the bar list."""


class DanglingEndpoint(IsoframeError):
    """A bar references a joint id that does not exist."""


class SelfLoop(IsoframeError):
    """A bar connects a joint to itself."""


class ZeroLengthBar(IsoframeError):
    """A bar has (numerically) zero length, so its direction is undefined."""


class NonFiniteEntry(IsoframeError):
    """A coordinate or matrix entry is NaN or infinite."""


class ParseError(IsoframeError):
    """Input JSON is malformed or violates the documented schema."""


# ---------------------------------------------------------------------------
# symmetry detection / classification


class ToleranceAmbiguity(IsoframeError):
    """The geometric tolerance does not settle the symmetry group: either
    distinct answers lie within it (two joints, or two candidate
    symmetries, closer than it can tell apart), or noise about its size
    lets some symmetries through and not others, so that the symmetries
    found do not form a group."""


class ContinuousSymmetry(IsoframeError):
    """The joint set does not pin down a finite symmetry group (all joints
    on one line or at the origin), so a continuum of isometries fixes it."""


class NotAGroup(IsoframeError):
    """A supplied set of isometries is not closed under composition
    or inverses."""


class UnrecognizedGroup(IsoframeError):
    """A group of isometries was found but does not match any catalogued
    point group (for example an axis order outside the supported range)."""


class GroupOutsideWhitelist(IsoframeError):
    """A plane symmetric-sparsity check was requested for a group with no
    known combinatorial characterization."""


# ---------------------------------------------------------------------------
# counting / decomposition


class NonIntegralMultiplicity(IsoframeError):
    """A trace vector failed to decompose into integer multiples of the
    irreducible rows of the character table."""


# ---------------------------------------------------------------------------
# constructions


class DegenerateFace(IsoframeError):
    """The requested face is not an actual triangle of the framework, its
    corners are collinear, or a height above it is out of float range."""


class DegenerateTwist(IsoframeError):
    """A twisted cap parameter choice collapses new joints onto old ones
    or restores a mirror that the construction must destroy."""


class NotOnThreefoldAxis(IsoframeError):
    """A stacking construction requires the chosen face to sit on a
    threefold rotation axis of the framework, and it does not."""


class CapExceeded(IsoframeError):
    """An exhaustive scan was asked to enumerate more subgraphs than the
    configured budget allows."""


# ---------------------------------------------------------------------------
# internal


class InternalInconsistency(IsoframeError):
    """Two independent computations of the same quantity disagree.
    This always indicates a bug in isoframe, not bad input."""
