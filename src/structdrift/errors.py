"""Exception types shared across the toolkit."""


class StructDriftError(Exception):
    """Base class for all errors raised by this package."""


class NotElfError(StructDriftError):
    """The input file is not an ELF object."""


class NoDwarfError(StructDriftError):
    """The ELF file carries no DWARF debug-info sections."""


class MalformedDwarfError(StructDriftError):
    """DWARF data could not be decoded.

    Carries the section name and the byte offset within that section at
    which decoding failed.
    """

    def __init__(self, message: str, section: str, offset: int):
        super().__init__(f"{message} ({section} offset {offset:#x})")
        self.section = section
        self.offset = offset


class SchemaError(StructDriftError):
    """A JSON document does not match its declared schema."""


class InvariantError(StructDriftError):
    """A structurally valid document violates a profile invariant."""


class UnsupportedFormatError(SchemaError):
    """The requested output format does not exist for this report kind."""
