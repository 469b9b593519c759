"""Exception types shared across the control plane and the simulator."""

from __future__ import annotations


class IcnError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(IcnError):
    """Scenario or registry configuration is invalid."""


class UnknownInstance(IcnError):
    pass


class InvalidIcnType(IcnError):
    pass


class UnknownSwitch(IcnError):
    pass


class DuplicateAddress(IcnError):
    pass


class MalformedPattern(IcnError):
    pass


class MalformedCidr(IcnError):
    pass


class AmbiguousMatch(IcnError):
    """More than one ICN instance claims the same request."""


class Unreachable(IcnError):
    """No path exists between two attachment points."""


class DuplicateSession(IcnError):
    pass


class MalformedHttp(IcnError):
    pass


class MpdError(IcnError):
    """Base class for manifest parsing problems."""


class MalformedXml(MpdError):
    pass


class MissingMandatoryElement(MpdError):
    pass


class CyclicDependency(MpdError):
    pass


class DuplicateSegmentUrl(MpdError):
    pass


class UnknownRepresentation(MpdError):
    pass
