"""Minimal ELF reader: just enough to locate and load debug sections.

Handles little-endian 32- and 64-bit files, and refuses big-endian ones
at load, since the DWARF decoder reads little-endian data only (every
profiled target is little-endian). Decompresses zlib-compressed debug
sections (both SHF_COMPRESSED and legacy .zdebug_*).
A compressed section must inflate to exactly the size its header states;
inflation stops one byte past that size. Relocations are not applied, so a
relocatable object with RELA relocations of its debug sections is refused.
"""

import struct
import sys
import zlib
from typing import Dict, NamedTuple, Optional

from .errors import NotElfError

ELF_MAGIC = b"\x7fELF"

ET_REL = 1
SHT_RELA = 4
SHF_COMPRESSED = 0x800
ELFCOMPRESS_ZLIB = 1

# e_machine values for the architectures this toolkit profiles.
EM_386 = 3
EM_ARM = 40
EM_X86_64 = 62
EM_AARCH64 = 183

MACHINE_LABELS = {
    (EM_ARM, 32): "arm32",
    (EM_AARCH64, 64): "arm64",
    (EM_386, 32): "x86_32",
    (EM_X86_64, 64): "x86_64",
}


class _ClassLayout(NamedTuple):
    """Where an ELF class keeps the fields this reader uses (struct formats)."""

    word: str         # Elf32_Off/Word or Elf64_Off/Xword: e_shoff and sh_size
    shoff_at: int     # e_shoff in the ELF header
    shcounts_at: int  # e_shentsize, e_shnum, e_shstrndx in the ELF header
    shdr: str         # Elf_Shdr from sh_name to sh_info
    size_at: int      # sh_size in a section header
    link_at: int      # sh_link (4 bytes) in a section header
    chdr: str         # Elf_Chdr: ch_type, (64-bit: ch_reserved), ch_size, ch_addralign


_CLASS_LAYOUTS = {
    32: _ClassLayout("<I", 0x20, 0x2E, "<IIIIIIII", 0x14, 0x18, "<III"),
    64: _ClassLayout("<Q", 0x28, 0x3A, "<IIQQQQII", 0x20, 0x28, "<IIQQ"),
}


class Section(NamedTuple):
    name: str
    flags: int
    offset: int
    size: int


class ElfFile:
    """Parsed ELF container giving access to raw section contents."""

    def __init__(self, data: bytes):
        self.data = data
        if len(data) < 16 or data[:4] != ELF_MAGIC:
            raise NotElfError("bad ELF magic")
        ei_class = data[4]
        ei_data = data[5]
        if ei_class not in (1, 2):
            raise NotElfError(f"unsupported ELF class {ei_class}")
        if ei_data != 1:
            raise NotElfError(f"unsupported ELF data encoding {ei_data}: "
                              "only little-endian (1) files are read")
        self.bits = 32 if ei_class == 1 else 64
        try:
            self._parse_headers()
        except struct.error as exc:
            raise NotElfError(f"truncated ELF header: {exc}") from exc

    def _parse_headers(self) -> None:
        layout = _CLASS_LAYOUTS[self.bits]
        e_type, self.machine = struct.unpack_from("<HH", self.data, 16)
        (shoff,) = struct.unpack_from(layout.word, self.data, layout.shoff_at)
        shentsize, shnum, shstrndx = struct.unpack_from("<HHH", self.data,
                                                        layout.shcounts_at)
        if shoff == 0 or shentsize == 0:
            raise NotElfError("ELF file has no section header table")

        # shnum == 0 means the real count lives in section 0's sh_size.
        count = shnum or struct.unpack_from(layout.word, self.data,
                                            shoff + layout.size_at)[0]
        if shoff + count * shentsize > len(self.data):
            raise NotElfError("section header table extends past end of file")
        shdr = struct.Struct(layout.shdr)
        headers = [shdr.unpack_from(self.data, shoff + i * shentsize) for i in range(count)]

        if shstrndx == 0xFFFF:
            (shstrndx,) = struct.unpack_from("<I", self.data, shoff + layout.link_at)
        if shstrndx >= len(headers):
            raise NotElfError("section name string table index out of range")
        str_off, str_size = headers[shstrndx][4:6]
        strtab = self.data[str_off : str_off + str_size]

        # RELA addends live outside the section, so unrelocated string offsets read 0.
        relocated = {h[7] for h in headers if h[1] == SHT_RELA} if e_type == ET_REL else ()
        self.sections: Dict[str, Section] = {}
        for index, (name_off, _, flags, _, offset, size, _, _) in enumerate(headers):
            end = strtab.find(b"\x00", name_off)
            if end < 0:
                continue
            name = strtab[name_off:end].decode("utf-8", "replace")
            if index in relocated and name.startswith((".debug_", ".zdebug_")):
                raise NotElfError(f"section {name} has RELA relocations; they are not applied")
            self.sections[name] = Section(name, flags, offset, size)

    def section_bytes(self, section: Section) -> bytes:
        raw = self.data[section.offset : section.offset + section.size]
        if len(raw) != section.size:
            raise NotElfError(f"section {section.name} extends past end of file")
        if section.flags & SHF_COMPRESSED:
            return self._decompress_chdr(section.name, raw)
        if section.name.startswith(".zdebug"):
            return self._decompress_legacy(section.name, raw)
        return raw

    def _decompress_chdr(self, name: str, raw: bytes) -> bytes:
        header = struct.Struct(_CLASS_LAYOUTS[self.bits].chdr)
        if len(raw) < header.size:
            raise NotElfError(f"section {name} is too short for its compression header")
        ch_type, *_, ch_size, _ = header.unpack_from(raw, 0)
        if ch_type != ELFCOMPRESS_ZLIB:
            raise NotElfError(f"section {name} uses unsupported compression {ch_type}")
        return _inflate(name, raw[header.size:], ch_size)

    @staticmethod
    def _decompress_legacy(name: str, raw: bytes) -> bytes:
        if raw[:4] != b"ZLIB":
            raise NotElfError(f"section {name} lacks ZLIB header")
        return _inflate(name, raw[12:], int.from_bytes(raw[4:12], "big"))

    def debug_section(self, suffix: str) -> Optional[bytes]:
        """Return decompressed contents of .debug_<suffix> (or .zdebug_<suffix>)."""
        for name in (f".debug_{suffix}", f".zdebug_{suffix}"):
            section = self.sections.get(name)
            if section is not None:
                return self.section_bytes(section)
        return None

    def architecture_label(self) -> Optional[str]:
        return MACHINE_LABELS.get((self.machine, self.bits))


def _inflate(name: str, payload: bytes, size: int) -> bytes:
    """The zlib stream `payload`, which must inflate to exactly `size` bytes."""
    inflater = zlib.decompressobj()
    try:
        data = inflater.decompress(payload, min(size + 1, sys.maxsize))
    except zlib.error as exc:
        raise NotElfError(f"section {name} does not decompress: {exc}") from exc
    if len(data) != size or not inflater.eof:
        raise NotElfError(f"section {name} does not decompress to its stated "
                          f"size of {size} bytes")
    return data


def load_elf(path) -> ElfFile:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except IsADirectoryError as exc:
        raise NotElfError(f"{path} is a directory") from exc
    return ElfFile(data)
