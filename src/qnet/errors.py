"""Exception types shared across the package."""


class QnetError(Exception):
    """Base class for all qnet errors."""


class ValidationError(QnetError):
    """A network description violates a structural invariant."""


class AsymmetricCoupling(ValidationError):
    pass


class NonzeroSelfCoupling(ValidationError):
    pass


class NegativeRate(ValidationError):
    pass


class LengthMismatch(ValidationError):
    pass


class NoPort(ValidationError):
    """Every input decay, or every output decay, is zero."""


class SingularSystem(QnetError):
    """The state-space matrix is numerically singular at some frequency."""

    def __init__(self, omega, index=None):
        self.omega = omega
        self.index = index
        where = f" (grid index {index})" if index is not None else ""
        super().__init__(f"singular state-space matrix at omega={omega!r}{where}")


class RecursionOverflow(QnetError):
    """Continued-fraction recursion left the floating-point range."""


class UnresolvablePhaseJump(QnetError):
    """The side-channel zeros' share of the phase of T, the one part not
    taken from the poles, moves too far between two samples to be unwrapped."""

    def __init__(self, omega_lo, omega_hi):
        self.omega_lo = omega_lo
        self.omega_hi = omega_hi
        super().__init__(
            f"phase jump above the safe threshold between {omega_lo!r} and {omega_hi!r}; "
            "grid likely straddles an unresolvable feature"
        )


class WindowTooNarrow(QnetError):
    """Frequency window truncates too much of the response tail."""


class NotNormalized(QnetError):
    """Wavepacket amplitudes are not unit-normalized."""


class BalancedDecaysUnsupported(QnetError):
    """Balanced decays make the requested design impossible."""


class NegativeRadicand(QnetError):
    pass


class ParseError(QnetError):
    """A network description file could not be parsed."""
