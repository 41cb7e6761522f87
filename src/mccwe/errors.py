"""Exception taxonomy shared by every module in the package."""


class MarketError(Exception):
    """Base class for all errors raised by this package."""


class SizeLimit(MarketError):
    """An operation would exceed its enumeration or variable-count cap, or
    print a number past the interpreter's int-to-string digit limit."""


class NotMCCWE(MarketError):
    """Supporting prices were requested for an allocation that admits none.

    Carries the exact gap between the fractional optimum and the
    allocation's welfare.
    """

    def __init__(self, gap):
        super().__init__(f"allocation is not supportable; fractional-integral gap {gap}")
        self.gap = gap


class NotSuperadditive(MarketError):
    """A mechanism that needs super-additive agents was given others."""


class NotSingleMinded(MarketError):
    """A mechanism that needs single-minded agents was given others."""


class NotUniformBudgetAdditive(MarketError):
    """A mechanism that needs uniform budget-additive agents was given others."""


class NotIdenticalBudgets(MarketError):
    """The identical-budget cleanup was given agents with differing budgets."""


class EmptyPool(MarketError):
    """A relative-demand query was posed over an empty item pool."""


class BadParams(MarketError):
    """Instance-family parameters fail their validation rules."""


class ParseError(MarketError):
    """An instance or outcome document is malformed.

    The message names the offending line or field.
    """


class CertificateError(MarketError):
    """A computed result failed its own re-check: a bug, not bad input."""
