"""Shared fixtures for the test suite.

``any_catalog`` parametrizes over all three VDC backends so every
catalog-behaviour test runs against memory, sqlite and filetree
identically — the backends must be observationally equivalent.
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

from repro.catalog.filetree import FileTreeCatalog
from repro.catalog.memory import MemoryCatalog
from repro.catalog.sqlite import SQLiteCatalog

#: A small but complete pipeline used across many tests: two raw
#: generators feeding simulators feeding a joint analysis.
DIAMOND_VDL = """
TR gen( output o, none seed="1" ) {
  argument = "-s "${none:seed};
  argument stdout = ${output:o};
  exec = "/bin/gen";
}
TR sim( output o, input i ) {
  argument stdin = ${input:i};
  argument stdout = ${output:o};
  exec = "/bin/sim";
}
TR ana( output o, input a, input b ) {
  argument = "-a "${input:a}" -b "${input:b};
  argument stdout = ${output:o};
  exec = "/bin/ana";
}
DV g1->gen( o=@{output:"raw1"}, seed="42" );
DV g2->gen( o=@{output:"raw2"}, seed="43" );
DV s1->sim( o=@{output:"sim1"}, i=@{input:"raw1"} );
DV s2->sim( o=@{output:"sim2"}, i=@{input:"raw2"} );
DV a1->ana( o=@{output:"final"}, a=@{input:"sim1"}, b=@{input:"sim2"} );
"""

#: The Fig-1 example of the paper: prog1 maps fnn -> foo.
FIG1_VDL = """
TR prog1( output Y, input X ) {
  argument = "-f "${input:X};
  argument stdout = ${output:Y};
  exec = "/usr/bin/prog1";
}
DV dfoo->prog1( Y=@{output:"foo"}, X=@{input:"fnn"} );
"""


@pytest.fixture(params=["memory", "sqlite", "filetree"])
def any_catalog(request, tmp_path):
    """One empty catalog per backend."""
    if request.param == "memory":
        yield MemoryCatalog(authority="test.example")
    elif request.param == "sqlite":
        catalog = SQLiteCatalog(authority="test.example")
        yield catalog
        catalog.close()
    else:
        yield FileTreeCatalog(tmp_path / "vdc", authority="test.example")


@pytest.fixture
def derivation_scans(monkeypatch):
    """Count whole-store scans of one kind (derivations by default):
    call with a catalog, read the returned list's length afterwards."""

    def watch(catalog, kind="derivation"):
        scans = []
        scan = catalog._scan

        def counting(scanned):
            if scanned == kind:
                scans.append(scanned)
            return scan(scanned)

        monkeypatch.setattr(catalog, "_scan", counting)
        return scans

    return watch


@pytest.fixture
def syscalls(monkeypatch):
    """Count calls made through ``os.<name>`` — which is how ``pathlib``,
    ``os.path`` and ``tempfile`` reach the filesystem too.  A Counter by
    name (``clear()`` it to start a region); ``open_flags`` lists the
    flags of each ``os.open``."""
    calls: Counter = Counter()
    calls.open_flags = []

    def counted(name):
        real = getattr(os, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "open":
                calls.open_flags.append(args[1])
            return real(*args, **kwargs)

        return wrapper

    for name in ("stat", "lstat", "open", "replace", "listdir", "scandir"):
        monkeypatch.setattr(os, name, counted(name))
    return calls


@pytest.fixture
def catalog():
    """A plain in-memory catalog (most tests don't vary the backend)."""
    return MemoryCatalog(authority="test.example")


@pytest.fixture
def diamond_catalog():
    """An in-memory catalog pre-loaded with the diamond pipeline."""
    return MemoryCatalog(authority="test.example").define(DIAMOND_VDL)
