"""Crash emulation for the paged workload: keep only flushed bytes.

Killing a process leaves the operating system's page cache intact, so
a reopen after ``SIGKILL`` would also see bytes the program wrote but
never fsynced. To test durability honestly the benchmark discards
them itself:

- :func:`install` (server process, before the database opens) wraps
  the page file's ``DiskManager`` and the journal's ``FileStore``.
  Before a page that was durable is first overwritten after an fsync,
  its old bytes go to ``<page file>.shadow``; after every fsync the
  shadow log gets a sync mark with the file's page count. The journal's
  size after every fsync goes to ``<journal>.durable``.
- :func:`restore` (load side, after the kill) truncates both files to
  their last fsynced size and writes the saved pages back.

A mark is written right after the fsync returns and before the program
continues, so nothing the program acknowledged is ever rolled back.
"""

from __future__ import annotations

import os
import struct

_U64 = struct.Struct(">Q")
_SYNC = struct.Struct(">QI")
_PAGE = struct.Struct(">QI")
_SHADOW_CAP = 1 << 20


def install() -> None:
    from repro.storage.pages import DiskManager
    from repro.storage.stores import FileStore

    states = {}

    class _Shadow:
        __slots__ = ("log", "imaged")

        def __init__(self, path: str):
            self.log = open(path + ".shadow", "wb", buffering=0)
            self.imaged = set()

        def mark(self, disk) -> None:
            if self.log.tell() > _SHADOW_CAP:
                self.log.truncate(0)
                self.log.seek(0)
            self.log.write(b"S" + _SYNC.pack(disk.num_pages, disk.page_size))
            self.imaged.clear()

    disk_init = DiskManager.__init__
    disk_write = DiskManager.write_page
    disk_sync = DiskManager.sync
    disk_close = DiskManager.close

    def init(self, path, *args, **kwargs):
        disk_init(self, path, *args, **kwargs)
        shadow = states[id(self)] = _Shadow(path)
        shadow.mark(self)

    def write_page(self, pid, data):
        shadow = states.get(id(self))
        if shadow is not None and pid not in shadow.imaged:
            shadow.imaged.add(pid)
            old = os.pread(
                self._file.fileno(), self.page_size, pid * self.page_size
            )
            shadow.log.write(b"P" + _PAGE.pack(pid, len(old)) + old)
        disk_write(self, pid, data)

    def sync(self):
        disk_sync(self)
        shadow = states.get(id(self))
        if shadow is not None:
            shadow.mark(self)

    def close(self):
        disk_close(self)
        shadow = states.pop(id(self), None)
        if shadow is not None:
            shadow.mark(self)
            shadow.log.close()

    DiskManager.__init__ = init
    DiskManager.write_page = write_page
    DiskManager.sync = sync
    DiskManager.close = close

    def durable_after(fn):
        def wrapper(self, *args, **kwargs):
            result = fn(self, *args, **kwargs)
            with open(self._path + ".durable", "ab", buffering=0) as log:
                log.write(_U64.pack(os.path.getsize(self._path)))
            return result

        return wrapper

    for attr in ("__init__", "sync", "close", "truncate",
                 "replace_records"):
        setattr(FileStore, attr, durable_after(getattr(FileStore, attr)))


def restore(page_path: str) -> dict:
    """Roll the page file and its journal back to their last fsynced
    state; returns what was discarded."""
    discarded = {"pages_restored": 0, "page_bytes_cut": 0,
                 "journal_bytes_cut": 0}
    shadow_path = page_path + ".shadow"
    if os.path.exists(shadow_path):
        with open(shadow_path, "rb") as log:
            data = log.read()
        durable_pages = page_size = None
        images = {}
        offset = 0
        while offset < len(data):
            tag = data[offset:offset + 1]
            offset += 1
            if tag == b"S" and offset + _SYNC.size <= len(data):
                durable_pages, page_size = _SYNC.unpack_from(data, offset)
                offset += _SYNC.size
                images = {}
            elif tag == b"P" and offset + _PAGE.size <= len(data):
                pid, length = _PAGE.unpack_from(data, offset)
                offset += _PAGE.size
                if offset + length > len(data):
                    break  # torn record: the page write never happened
                images.setdefault(pid, data[offset:offset + length])
                offset += length
            else:
                break
        if durable_pages is not None:
            keep = durable_pages * page_size
            with open(page_path, "r+b") as pages:
                size = os.path.getsize(page_path)
                if size > keep:
                    pages.truncate(keep)
                    discarded["page_bytes_cut"] = size - keep
                for pid, image in images.items():
                    if pid < durable_pages:
                        pages.seek(pid * page_size)
                        pages.write(image)
                        discarded["pages_restored"] += 1
                pages.flush()
                os.fsync(pages.fileno())
    journal_path = page_path + ".journal"
    marks_path = journal_path + ".durable"
    if os.path.exists(marks_path) and os.path.exists(journal_path):
        with open(marks_path, "rb") as marks:
            raw = marks.read()
        usable = len(raw) - len(raw) % _U64.size
        if usable:
            (durable,) = _U64.unpack_from(raw, usable - _U64.size)
            size = os.path.getsize(journal_path)
            if size > durable:
                with open(journal_path, "r+b") as journal:
                    journal.truncate(durable)
                discarded["journal_bytes_cut"] = size - durable
    swap = journal_path + ".swap"
    if os.path.exists(swap):
        os.remove(swap)
    return discarded
