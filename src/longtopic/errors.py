"""Named error types, and the type and bound rules of config settings.

Every validation failure in the package maps to one of these; callers never see a
half-constructed object or a bare ValueError from the public API.
"""

import dataclasses
import numbers


class LongtopicError(Exception):
    """Base class for all package errors."""


class DuplicateDocument(LongtopicError):
    """The same (subject, stage) cell appears more than once."""


class MissingDocument(LongtopicError):
    """A (subject, stage) cell has no document and missing cells are not allowed."""


class VocabMismatch(LongtopicError):
    """A word index falls outside the vocabulary, or vocabularies differ."""


class MissingLabel(LongtopicError):
    """A subject appearing in the documents has no group label."""


class FormatError(LongtopicError):
    """A file or record is structurally malformed."""


class IoError(LongtopicError):
    """A filesystem read or write failed or was refused."""


class ShapeError(LongtopicError):
    """Array dimensions do not match the declared layout."""


class NumericError(LongtopicError):
    """Non-finite input or a nonpositive scale where positivity is required."""


class UnknownDistance(LongtopicError):
    """Unrecognized group-distance kind."""


class DivergedError(LongtopicError):
    """Training loss became non-finite."""


class TooManyTopics(LongtopicError):
    """Exhaustive topic alignment is limited to K <= 8."""


class DegenerateDesign(LongtopicError):
    """Too few samples to fit the group probe."""


class ConfigError(LongtopicError):
    """Invalid or incomplete experiment configuration."""


# a setting's declared type -> (accepted Python types, how a message names it)
_SETTING_TYPES = {"int": (numbers.Integral, "an integer"),
                  "float": (numbers.Real, "a number"),
                  "str": (str, "a string"),
                  "bool": (bool, "true or false"),
                  "tuple": ((list, tuple), "a list")}


def check_setting(value, kind, name):
    """value if it has the setting type kind (a key of _SETTING_TYPES), else
    ConfigError. A bool is only a bool: an int or float setting rejects it,
    while a float setting takes an integer."""
    types, noun = _SETTING_TYPES[kind]
    if not isinstance(value, types) or (
            isinstance(value, bool) and kind != "bool"):
        raise ConfigError(f"{name} must be {noun}; got {value!r}")
    return value


def setting(default=dataclasses.MISSING, **bound):
    """A config dataclass field with the bound check_field_types enforces:
    ge=lo (value >= lo), positive=True (value > 0) or one_of=choices."""
    return dataclasses.field(default=default, metadata=bound)


def check_field_types(cfg):
    """check_setting on every field of the dataclass cfg by its declared type,
    then the bound its setting() states; a `T | None` field also takes None."""
    for f in dataclasses.fields(cfg):
        value, kind = getattr(cfg, f.name), f.type.removesuffix(" | None")
        if value is None and kind != f.type:
            continue
        check_setting(value, kind, f.name)
        ge, one_of = f.metadata.get("ge"), f.metadata.get("one_of")
        if ge is not None and not value >= ge:
            raise ConfigError(f"{f.name} must be >= {ge}")
        if f.metadata.get("positive") and not value > 0:
            raise ConfigError(f"{f.name} must be positive")
        if one_of and value not in one_of:
            raise ConfigError(f"unknown {f.name} {value!r}")
