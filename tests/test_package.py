"""Package-level tests: error hierarchy, lazy exports, odd names."""

import pytest

import repro
from repro import errors
from repro.catalog.filetree import FileTreeCatalog
from repro.core.dataset import Dataset


class TestErrorHierarchy:
    def test_everything_is_a_virtual_data_error(self):
        leaf_errors = [
            errors.UnknownTypeError,
            errors.TypeConformanceError,
            errors.SignatureMismatchError,
            errors.VDLSyntaxError,
            errors.VDLSemanticError,
            errors.DuplicateEntryError,
            errors.NotFoundError,
            errors.ReferenceError_,
            errors.FederationError,
            errors.SubmissionError,
            errors.TransferError,
            errors.CyclicDerivationError,
            errors.UnderivableError,
            errors.ExecutionError,
            errors.EstimationError,
        ]
        for cls in leaf_errors:
            assert issubclass(cls, errors.VirtualDataError)

    def test_catching_the_family(self):
        with pytest.raises(errors.VirtualDataError):
            raise errors.NotFoundError("x")
        with pytest.raises(errors.CatalogError):
            raise errors.DuplicateEntryError("x")

    def test_vdl_syntax_error_position(self):
        err = errors.VDLSyntaxError("bad token", line=3, column=7)
        assert "line 3" in str(err)
        assert err.line == 3 and err.column == 7


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_lazy_virtual_data_system(self):
        # Resolved on attribute access, not at import time.
        vds_cls = repro.VirtualDataSystem
        from repro.system import VirtualDataSystem

        assert vds_cls is VirtualDataSystem

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.no_such_thing  # noqa: B018

    def test_core_reexports(self):
        assert repro.Dataset is Dataset


class TestAwkwardNames:
    """Names with ::, @, dots must survive every backend's key encoding."""

    @pytest.mark.parametrize(
        "name", ["example1::t1", "a.b.c", "x+y", "run-1:part:2"]
    )
    def test_filetree_encodes_keys(self, tmp_path, name):
        catalog = FileTreeCatalog(tmp_path / "vdc")
        catalog.add_dataset(Dataset(name=name))
        reopened = FileTreeCatalog(tmp_path / "vdc")
        assert reopened.get_dataset(name).name == name

    def test_versioned_transformation_keys(self, tmp_path):
        catalog = FileTreeCatalog(tmp_path / "vdc")
        catalog.define('TR ns::tool@2.10( output o ) { exec = "/b"; }')
        reopened = FileTreeCatalog(tmp_path / "vdc")
        assert reopened.get_transformation("ns::tool", "2.10").name == "ns::tool"
