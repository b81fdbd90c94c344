"""Exception types shared across the package."""


class VarpartError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDataset(VarpartError):
    """Dataset structure is inconsistent (lengths, names, or size)."""


class NonFiniteValue(VarpartError, ValueError):
    """A column contains NaN or infinity; also a ValueError, as the bad value it is."""


class ConstantColumn(VarpartError):
    """A column has zero sample standard deviation."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"column {name!r} is constant (sample sd = 0)")


class UnknownName(VarpartError):
    """A referenced column name does not exist in the data, or names the
    response where a predictor is wanted."""

    def __init__(self, name: str, message: str | None = None):
        self.name = name
        super().__init__(message or f"unknown column {name!r}")


class RowsNotKept(VarpartError):
    """A per-row vector was asked of a centering that kept only the moments."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(
            f"column {name!r}: the rows were folded into the SSCP as they were read "
            "and not kept; use mean_center(load_csv(spec)) for per-row vectors"
        )


class EmptySubset(VarpartError):
    """A fit was requested with no predictors."""


class SingularDesign(VarpartError):
    """The predictor cross-product matrix is singular or numerically so."""


class TooManyOrderings(VarpartError):
    """Exhaustive ordering enumeration was requested above the cap."""

    def __init__(self, p: int, cap: int):
        self.p = p
        self.cap = cap
        super().__init__(
            f"{p} predictors means {p}! orderings; exhaustive enumeration is "
            f"capped at {cap} predictors -- pass explicit orderings instead"
        )


class NotPositiveSemidefinite(VarpartError):
    """A requested correlation matrix is not positive semidefinite."""


class EmptyData(VarpartError):
    """An input file contains no data rows."""


class MissingColumn(VarpartError):
    """A required column is absent from an input file header."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"column {name!r} not found in header")


class ParseError(VarpartError):
    """An input file row could not be parsed."""

    def __init__(self, line: int, detail: str):
        self.line = line
        super().__init__(f"line {line}: {detail}")


class NonNumericCell(VarpartError):
    """A cell in a numeric column could not be parsed as a number."""

    def __init__(self, line: int, column: str, value: str):
        self.line = line
        self.column = column
        self.value = value
        super().__init__(
            f"line {line}, column {column!r}: {value!r} is not numeric"
        )
