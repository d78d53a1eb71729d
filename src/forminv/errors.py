"""Exception hierarchy.

Everything raised deliberately by the library derives from ForminvError so
the CLI can map failures to exit codes (input problems vs. verification
failures) without string matching.
"""


class ForminvError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(ForminvError):
    """Operands built over different variable/parameter counts."""


class TruncationError(ForminvError):
    """A term exceeds the stated truncation degree, or a requested
    window/degree exceeds what the inputs can certify."""


class SubstitutionError(ForminvError):
    """Composition with a map that has a nonzero constant term."""


class CanonicalFormError(ForminvError):
    """A map is not of the canonical shape z - H with o(H) >= 2."""


class HomogeneityError(ForminvError):
    """An operation requiring homogeneous input received a mixed-degree map."""


class DivisibilityError(ForminvError):
    """H_i is not divisible by z_i, so the direct product-form coefficient
    formula does not apply (use the residue formula instead)."""


class NilpotencyError(ForminvError):
    """An operation requiring a nilpotent Jacobian received one that is not."""


class MethodDisagreement(ForminvError):
    """Two inversion methods returned different series; carries a diagnostic
    naming the first differing coefficient."""


class MapFormatError(ForminvError):
    """A map document failed to parse or violated a document invariant."""


class OutputTooLarge(ForminvError):
    """A coefficient has more digits than Python converts to text
    (``sys.get_int_max_str_digits()``, 4300 by default)."""
