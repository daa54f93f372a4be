"""Tests of the pluggable document-source protocol and its table of kinds."""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import pickle
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.documents.corpus import CorpusConfig
from repro.documents.simpdf import SimPdfWriter, serialize_document
from repro.documents.sources import (
    DocumentRef,
    DocumentSource,
    ExplicitSource,
    SimPdfDirSource,
    SourceSpec,
    StaleReference,
    SyntheticSource,
    create_source,
    document_origin,
    parse_source_arg,
    source_names,
    validate_source_spec,
)
from repro.documents.textgen import TextGenConfig

#: Reaches ``sub/beta.simpdf`` as well as the top-level files.
RECURSIVE = "**/*.simpdf"


def _write(path: Path, doc_id: str, seed: int = 5) -> None:
    """One one-page SimPDF document named ``doc_id`` at ``path``."""
    (document,) = SyntheticSource(
        CorpusConfig(n_documents=1, seed=seed, min_pages=1, max_pages=1)
    ).iter_documents()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(serialize_document(dataclasses.replace(document, doc_id=doc_id)))


@pytest.fixture
def tree(tmp_path) -> Path:
    """``alpha.simpdf`` at the top and ``sub/beta.simpdf`` one level down."""
    root = tmp_path / "tree"
    _write(root / "alpha.simpdf", "alpha")
    _write(root / "sub" / "beta.simpdf", "sub/beta")
    return root


class TestSimPdfDirSource:
    def test_streams_in_stable_path_order(self, tree):
        source = SimPdfDirSource(tree, glob=RECURSIVE)
        docs = list(source.iter_documents())
        assert [d.doc_id for d in docs] == ["alpha", "sub/beta"]
        assert [d.doc_id for d in source.iter_documents()] == [d.doc_id for d in docs]

    def test_missing_directory_fails_at_iteration_not_construction(self, tmp_path):
        source = SimPdfDirSource(tmp_path / "nowhere")
        with pytest.raises(FileNotFoundError, match="does not exist"):
            list(source.iter_documents())

    def test_fingerprint_tracks_file_edits(self, tree):
        source = SimPdfDirSource(tree)
        before = source.fingerprint()
        assert before == source.fingerprint()  # stable while untouched
        _write(tree / "alpha.simpdf", "alpha", seed=6)
        assert source.fingerprint() != before

    def test_spec_round_trip_rebuilds_an_equal_source(self, tree):
        source = SimPdfDirSource(tree)
        spec = source.spec()
        assert spec.kind == "simpdf-dir"
        assert spec.options == {"path": str(tree)}  # default glob elided
        rebuilt = create_source(SourceSpec.from_json_dict(spec.to_json_dict()))
        assert rebuilt == source
        assert hash(rebuilt) == hash(source)

    def test_non_default_glob_survives_the_spec(self, tree):
        source = SimPdfDirSource(tree, glob=RECURSIVE)
        spec = source.spec()
        assert spec.options["glob"] == RECURSIVE
        rebuilt = create_source(spec)
        assert [d.doc_id for d in rebuilt.iter_documents()] == ["alpha", "sub/beta"]
        # The default glob stays at the top level.
        assert [d.doc_id for d in SimPdfDirSource(tree).iter_documents()] == ["alpha"]


class TestSyntheticAndExplicit:
    def test_synthetic_spec_is_lossless_including_textgen(self):
        config = CorpusConfig(
            n_documents=6,
            seed=9,
            min_pages=2,
            max_pages=3,
            scanned_fraction=0.5,
            textgen=TextGenConfig(min_words_per_sentence=4),
        )
        source = SyntheticSource(config)
        rebuilt = create_source(SourceSpec.from_json_dict(source.spec().to_json_dict()))
        assert isinstance(rebuilt, SyntheticSource)
        assert rebuilt.config == config
        assert rebuilt == source

    def test_a_misspelled_textgen_option_is_refused(self):
        """It was dropped, and the source built was the default corpus."""
        known = sorted(f.name for f in dataclasses.fields(TextGenConfig))
        spec = SourceSpec("synthetic", {"n_documents": 3, "textgen": {"bogus_knob": 5}})
        message = (
            f"unknown option 'bogus_knob' for 'textgen' of source 'synthetic'; "
            f"known: {known}"
        )
        with pytest.raises(ValueError) as info:
            create_source(spec)
        assert str(info.value) == message
        with pytest.raises(ValueError, match="did you mean 'min_words_per_sentence'"):
            create_source(
                SourceSpec("synthetic", {"textgen": {"min_word_per_sentence": 4}})
            )
        # Over the wire too: a request is built from its JSON.
        from repro.pipeline import ParseRequest

        with pytest.raises(ValueError, match="'bogus_knob'"):
            ParseRequest.from_json_dict({"source": spec.to_json_dict()})

    @pytest.mark.parametrize("value", ["4", 4.5, True, None, [4]], ids=repr)
    def test_a_textgen_value_that_is_not_an_integer_is_refused(self, value):
        """It was passed on unchecked, and the first load failed in the generator."""
        spec = SourceSpec(
            "synthetic", {"n_documents": 2, "textgen": {"min_words_per_sentence": value}}
        )
        message = (
            f"synthetic option 'textgen.min_words_per_sentence' must be an integer, "
            f"not {value!r}"
        )
        with pytest.raises(ValueError) as info:
            create_source(spec)
        assert str(info.value) == message
        from repro.pipeline import ParseRequest

        with pytest.raises(ValueError, match="must be an integer"):
            ParseRequest.from_json_dict({"source": spec.to_json_dict()})

    def test_an_integral_float_textgen_value_is_taken_as_its_integer(self):
        spec = SourceSpec(
            "synthetic", {"n_documents": 2, "textgen": {"max_words_per_sentence": 30.0}}
        )
        source = create_source(spec)
        assert source.config.textgen == TextGenConfig(max_words_per_sentence=30)
        assert len(list(source.iter_documents())) == 2

    def test_synthetic_defaults_keep_the_spec_minimal(self):
        spec = SyntheticSource(CorpusConfig(n_documents=5, seed=3)).spec()
        assert spec.options == {"n_documents": 5, "seed": 3}

    def test_explicit_source_has_no_spec(self):
        pdfs = list(SyntheticSource(CorpusConfig(n_documents=2)).iter_documents())
        assert ExplicitSource(pdfs).spec() is None
        with pytest.raises(ValueError, match="must not be empty"):
            ExplicitSource(())


class TestRegistryAndShorthand:
    def test_registry_lists_the_builtin_kinds(self):
        assert source_names() == ["simpdf-dir", "synthetic"]

    def test_shorthand_binds_the_primary_option(self):
        spec = parse_source_arg("synthetic:8?seed=3")
        assert spec == SourceSpec("synthetic", {"n_documents": 8, "seed": 3})
        source = create_source(spec)
        assert isinstance(source, SyntheticSource)
        assert (source.config.n_documents, source.config.seed) == (8, 3)

    def test_shorthand_keeps_paths_verbatim(self):
        spec = parse_source_arg("simpdf-dir:2024?glob=**/*.simpdf")
        assert spec.options == {"path": "2024", "glob": "**/*.simpdf"}
        source = create_source(spec)
        assert isinstance(source, SimPdfDirSource) and source.glob == "**/*.simpdf"
        assert str(source.directory) == "2024"

    @pytest.mark.parametrize(
        ("raw", "match"),
        [
            ("  ", "empty --source"),
            ("simpdf-dir:x?glob", "expected key=value"),
            ("simpdf-dri:x", "did you mean 'simpdf-dir'"),
            ("simpdf-dir:", "needs a 'path'"),
            ("simpdf-dir:x?glob=1", "'glob' must be a string"),
            # A glob names files under the root, or the run would fail midway.
            ("simpdf-dir:x?glob=../req-001/*.simpdf", "under the source root"),
            ("simpdf-dir:x?glob=sub/../../*.simpdf", "under the source root"),
            ("simpdf-dir:x?glob=/tmp/*.simpdf", "under the source root"),
            ("simpdf-dir:x?glob=", "under the source root"),
            ("simpdf-dir:x?glob=./", "under the source root"),
            ("simpdf-dir:x?glob=*/", "under the source root"),
            ("simpdf-dir:x?glob=a**/*.simpdf", "'\\*\\*' can only be an entire component"),
            ("synthetic:5?n_documents=2.5", "'n_documents' must be an integer"),
            ("synthetic:5?seed=1.5", "'seed' must be an integer"),
            ("synthetic:5?textgen=5", "'textgen' must be a mapping"),
        ],
    )
    def test_shorthand_errors(self, raw, match):
        with pytest.raises(ValueError, match=match):
            create_source(parse_source_arg(raw))

    def test_validate_suggests_close_option_names(self):
        with pytest.raises(ValueError, match="did you mean 'glob'"):
            validate_source_spec(SourceSpec("simpdf-dir", {"glbo": "*.simpdf"}))
        with pytest.raises(ValueError, match="known:"):
            validate_source_spec(SourceSpec("no-such-kind", {}))

    def test_source_spec_json_is_strict(self):
        with pytest.raises(ValueError, match="unknown source-spec field"):
            SourceSpec.from_json_dict({"kind": "synthetic", "option": {}})
        with pytest.raises(ValueError, match="missing its 'kind'"):
            SourceSpec.from_json_dict({"options": {}})

    def test_create_source_passes_instances_through(self, tree):
        source = SimPdfDirSource(tree)
        assert create_source(source) is source


class TestValueSemantics:
    def test_equality_is_kind_plus_fingerprint(self, tree):
        a = SimPdfDirSource(tree)
        b = SimPdfDirSource(tree)
        assert a == b and hash(a) == hash(b)
        assert a != SimPdfDirSource(tree, glob=RECURSIVE)
        assert a != SyntheticSource(CorpusConfig(n_documents=1))
        assert a.__eq__(object()) is NotImplemented

    def test_abstract_base_is_not_instantiable(self):
        with pytest.raises(TypeError):
            DocumentSource()  # fingerprint is abstract


# ---------------------------------------------------------------------- #
# Document references: enumerate without reading, load one by one
# ---------------------------------------------------------------------- #
def _simpdf_dir(directory: Path, n_documents: int = 3, seed: int = 5) -> SimPdfDirSource:
    writer = SimPdfWriter(directory)
    for document in SyntheticSource(
        CorpusConfig(n_documents=n_documents, seed=seed, min_pages=1, max_pages=2)
    ).iter_documents():
        writer.write(document)
    return SimPdfDirSource(directory)


def _referenceable_sources(tmp_path: Path) -> list[DocumentSource]:
    return [
        SyntheticSource(
            CorpusConfig(
                n_documents=3,
                seed=4,
                min_pages=1,
                max_pages=2,
                textgen=TextGenConfig(min_words_per_sentence=4),  # a nested option
            )
        ),
        _simpdf_dir(tmp_path / "simpdf"),
    ]


_NAMES = st.text(alphabet="abcdefghij", min_size=1, max_size=6)


class TestDocumentRefs:
    def test_refs_then_load_is_iter_documents_for_every_referenceable_kind(
        self, tmp_path
    ):
        for source in _referenceable_sources(tmp_path):
            refs = list(source.refs())
            assert [source.load(ref) for ref in refs] == list(source.iter_documents())
            # A reference is self-contained: the spec it carries rebuilds a
            # source that loads the same document.
            assert [create_source(ref.source).load(ref) for ref in refs] == list(
                source.iter_documents()
            )
            assert len({ref.key() for ref in refs}) == len(set(refs)) == len(refs)

    def test_a_loaded_document_carries_the_reference_it_was_read_through(
        self, tmp_path
    ):
        for source in _referenceable_sources(tmp_path):
            refs = list(source.refs())
            before = time.time_ns()
            assert [document_origin(d).ref for d in source.iter_documents()] == refs
            origins = [document_origin(source.load(ref)) for ref in refs]
            assert [origin.ref for origin in origins] == refs
            # Each is stamped with the moment it was read, in reading order.
            read_at = [origin.read_ns for origin in origins]
            assert before <= read_at[0] and read_at == sorted(read_at)
            assert read_at[-1] <= time.time_ns()
            # A derived copy is another document: it carries no origin.
            copied = dataclasses.replace(source.load(refs[0]))
            assert copied == source.load(refs[0]) and document_origin(copied) is None

    def test_the_origin_stamp_is_the_one_read_not_the_one_listed(self, tree):
        source = SimPdfDirSource(tree, glob=RECURSIVE)
        (ref, _) = source.refs()
        _write(tree / "alpha.simpdf", "alpha rewritten")
        (fresh, _) = source.refs()
        document = source.load(ref, check_stamp=False)
        assert document.doc_id == "alpha rewritten"
        assert document_origin(document).ref == fresh != ref
        config = CorpusConfig(n_documents=2, seed=3, min_pages=1, max_pages=1)
        (other,) = [r for r in SyntheticSource(config).refs() if r.locator == "1"]
        relabelled = SyntheticSource(dataclasses.replace(config, seed=4))
        assert document_origin(relabelled.load(other, check_stamp=False)).ref.stamp == (
            relabelled.fingerprint()
        )

    def test_sources_that_must_read_to_enumerate_offer_no_refs(self):
        documents = list(SyntheticSource(CorpusConfig(n_documents=2)).iter_documents())
        assert ExplicitSource(documents).refs() is None
        with pytest.raises(ValueError, match="cannot load documents by reference"):
            ExplicitSource(documents).load(
                next(SyntheticSource(CorpusConfig(n_documents=2)).refs())
            )

    def test_file_stamp_is_size_and_mtime(self, tree):
        source = SimPdfDirSource(tree, glob=RECURSIVE)
        (ref, _) = source.refs()
        stat = (tree / "alpha.simpdf").stat()
        assert (ref.locator, ref.stamp) == (
            "alpha.simpdf",
            f"{stat.st_size}:{stat.st_mtime_ns}",
        )
        assert next(SyntheticSource(CorpusConfig(n_documents=1)).refs()).stamp == (
            SyntheticSource(CorpusConfig(n_documents=1)).fingerprint()
        )

    def test_ref_key_is_pinned(self):
        """Placement, the ledger and the cache's reference index all hold
        ``key()`` values across processes; these were cut from the code that
        re-serialised the options per reference."""
        spec = SourceSpec("simpdf-dir", {"path": "/x/y"})
        assert DocumentRef(spec, "a.simpdf", "123:456789").key() == (
            "05f8ca1ba065cee7cd54eea0d1b8ae00"
        )
        nested = SourceSpec(
            "synthetic", {"n_documents": 4, "seed": 9, "textgen": {"b": 1, "a": [1, 2]}}
        )
        assert DocumentRef(nested, "3", "abcdef").key() == (
            "fb938478b89b6a104a6501b6cd0074d6"
        )
        # The same spec rebuilt from JSON (a worker's view) keys alike.
        rebuilt = SourceSpec.from_json_dict(json.loads(json.dumps(nested.to_json_dict())))
        assert DocumentRef(rebuilt, "3", "abcdef").key() == (
            "fb938478b89b6a104a6501b6cd0074d6"
        )

    def test_stamp_says_when_a_file_was_modified_and_nothing_for_other_stamps(self):
        spec = SourceSpec("simpdf-dir", {"path": "/x"})
        assert DocumentRef(spec, "a.simpdf", "120:1700000000123456789").modified_ns == (
            1700000000123456789
        )
        for stamp in ("6f1e9ab2", "", "12:", "12:abc", ":"):
            assert DocumentRef(spec, "a.simpdf", stamp).modified_ns is None

    @pytest.mark.parametrize("glob", [RECURSIVE, "**/**/*.simpdf"])
    def test_listing_stats_each_file_once(self, tree, monkeypatch, glob):
        (tree / "dangling.simpdf").symlink_to(tree / "nowhere.simpdf")
        (tree / "dir.simpdf").mkdir()
        source = SimPdfDirSource(tree, glob=glob)
        expected = [(ref.locator, ref.stamp) for ref in source.refs()]
        assert [locator for locator, _ in expected] == ["alpha.simpdf", "sub/beta.simpdf"]
        stats: list[str] = []
        stat = os.stat

        def counting_stat(path, *args, **kwargs):
            stats.append(os.path.basename(path))
            return stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", counting_stat)
        assert [(ref.locator, ref.stamp) for ref in source.refs()] == expected
        files = [name for name in stats if name in ("alpha.simpdf", "beta.simpdf")]
        assert sorted(files) == ["alpha.simpdf", "beta.simpdf"]

    def test_rewritten_file_is_stale_unless_the_stamp_is_waived(self, tree):
        source = SimPdfDirSource(tree, glob=RECURSIVE)
        (ref, other) = source.refs()
        _write(tree / "alpha.simpdf", "alpha rewritten")
        with pytest.raises(StaleReference, match="changed since"):
            source.load(ref)
        assert source.load(ref, check_stamp=False).doc_id == "alpha rewritten"
        assert source.load(other).doc_id == "sub/beta"  # untouched files still load
        (fresh, _) = source.refs()
        assert fresh.key() != ref.key()  # placement and ledger keys move with it

    def test_relisted_file_keys_alike_until_its_stamp_moves(self, tree):
        def keys() -> dict[str, str]:
            refs = SimPdfDirSource(tree, glob=RECURSIVE).refs()
            return {ref.locator: ref.key() for ref in refs}

        first = keys()
        assert keys() == first  # a new listing of unchanged files
        path = tree / "alpha.simpdf"
        stat = path.stat()
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
        moved = keys()
        assert moved["alpha.simpdf"] != first["alpha.simpdf"]
        assert moved["sub/beta.simpdf"] == first["sub/beta.simpdf"]

    def test_key_memo_is_bounded_and_answers_what_hashing_would(self, monkeypatch):
        import repro.documents.sources as sources_module

        monkeypatch.setattr(sources_module, "_REF_KEY_MEMO_ENTRIES", 2)
        monkeypatch.setattr(sources_module, "_REF_KEYS", {})
        spec = SourceSpec("simpdf-dir", {"path": "/x/y"})
        stamps = ["123:456789", "123:456790", "124:456789"]
        first = [DocumentRef(spec, "a.simpdf", stamp).key() for stamp in stamps]
        assert len(sources_module._REF_KEYS) <= 2
        assert first[0] == "05f8ca1ba065cee7cd54eea0d1b8ae00"  # test_ref_key_is_pinned
        assert len(set(first)) == 3
        assert [DocumentRef(spec, "a.simpdf", stamp).key() for stamp in stamps] == first
        assert len(sources_module._REF_KEYS) <= 2

    def test_missing_file_or_directory_is_stale(self, tree):
        (ref, _) = SimPdfDirSource(tree, glob=RECURSIVE).refs()
        (tree / "alpha.simpdf").unlink()
        with pytest.raises(StaleReference, match="not readable here"):
            SimPdfDirSource(tree, glob=RECURSIVE).load(ref)
        with pytest.raises(StaleReference, match="not readable here"):
            SimPdfDirSource(tree / "nowhere").load(ref, check_stamp=False)

    @pytest.mark.parametrize(
        "locator", ["../outside.simpdf", "sub/../../outside.simpdf", "/etc/passwd", ""]
    )
    def test_locator_outside_the_root_is_refused_not_read(self, tree, locator):
        _write(tree.parent / "outside.simpdf", "secret")
        source = SimPdfDirSource(tree)
        ref = dataclasses.replace(next(source.refs()), locator=locator)
        with pytest.raises(ValueError, match="does not name a file under"):
            source.load(ref, check_stamp=False)

    @pytest.mark.parametrize("locator", ["3", "-1", "1.0", "one", ""])
    def test_synthetic_locator_must_be_an_index_in_range(self, locator):
        source = SyntheticSource(CorpusConfig(n_documents=3, seed=1))
        ref = dataclasses.replace(next(source.refs()), locator=locator)
        with pytest.raises(ValueError, match="not an index below 3"):
            source.load(ref)

    def test_synthetic_stamp_is_the_configuration(self):
        ref = next(SyntheticSource(CorpusConfig(n_documents=3, seed=1)).refs())
        other = SyntheticSource(CorpusConfig(n_documents=3, seed=2))
        with pytest.raises(StaleReference, match="configuration differs"):
            other.load(ref)

    def test_synthetic_identity_is_computed_once_per_instance(self, monkeypatch):
        """``load`` compares the stamp per document, and every synthetic
        request goes through ``load``: the (frozen) configuration is hashed
        and turned into a spec once, not once per document."""
        import repro.documents.sources as sources_module

        hashed = []
        stable_hash_hex = sources_module.stable_hash_hex
        monkeypatch.setattr(
            sources_module,
            "stable_hash_hex",
            lambda *parts: hashed.append(parts[0]) or stable_hash_hex(*parts),
        )
        config = CorpusConfig(n_documents=4, seed=1, min_pages=1, max_pages=1)
        source = SyntheticSource(config)
        refs = list(source.refs())
        assert [source.load(ref).doc_id for ref in refs] == [
            d.doc_id for d in source.iter_documents()
        ]
        assert hashed.count("source-synthetic") == 1
        assert source.spec() is source.spec() == SyntheticSource(config).spec()
        assert source.fingerprint() == SyntheticSource(config).fingerprint() == refs[0].stamp

    def test_load_items_reads_each_reference_and_reports_the_stale_ones_together(
        self, tmp_path, monkeypatch
    ):
        import repro.documents.sources as sources_module
        from repro.documents.sources import BadReference, StaleReferences, load_items

        documents = list(SyntheticSource(CorpusConfig(n_documents=4, seed=9)).iter_documents())
        writer = SimPdfWriter(tmp_path)
        for document in documents:
            writer.write(document)
        refs = list(SimPdfDirSource(tmp_path).refs())
        built = []
        create = sources_module.create_source
        monkeypatch.setattr(
            sources_module, "create_source", lambda spec: built.append(spec) or create(spec)
        )
        # Documents pass through, references are read: one source per spec per call.
        assert load_items([documents[0], refs[1], documents[2], refs[3]]) == documents
        assert len(built) == 1
        assert load_items(documents) == documents and len(built) == 1
        (tmp_path / refs[1].locator).unlink()
        (tmp_path / refs[3].locator).write_bytes(serialize_document(documents[0]))
        with pytest.raises(StaleReferences) as caught:
            load_items(refs)
        assert caught.value.refs == [refs[1], refs[3]]
        assert refs[1].locator in str(caught.value) and refs[3].locator in str(caught.value)
        with pytest.raises(BadReference, match="does not name a file under"):
            load_items([dataclasses.replace(refs[0], locator="../escape.simpdf")])

    def test_ref_json_is_strict_about_what_it_needs(self, tree):
        ref = next(SimPdfDirSource(tree).refs())
        payload = ref.to_json_dict()
        assert json.loads(json.dumps(payload)) == payload
        del payload["stamp"]
        with pytest.raises(ValueError, match=r"missing \['stamp'\]"):
            DocumentRef.from_json_dict(payload)

    @settings(max_examples=50, deadline=None)
    @given(
        kind=st.sampled_from(["synthetic", "simpdf-dir"]),
        options=st.dictionaries(
            _NAMES, st.one_of(st.integers(), st.booleans(), st.text(max_size=8)), max_size=3
        ),
        locator=st.text(max_size=20),
        stamp=st.text(max_size=20),
    )
    def test_ref_round_trips_through_json(self, kind, options, locator, stamp):
        ref = DocumentRef(SourceSpec(kind, options), locator, stamp)
        wire = json.loads(json.dumps(ref.to_json_dict()))
        assert DocumentRef.from_json_dict(wire) == ref
        assert DocumentRef.from_json_dict(wire).key() == ref.key()

    @settings(max_examples=8, deadline=None)
    @given(
        n_documents=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_synthetic_refs_load_what_iteration_yields(self, n_documents, seed):
        source = SyntheticSource(
            CorpusConfig(n_documents=n_documents, seed=seed, min_pages=1, max_pages=1)
        )
        assert [source.load(ref) for ref in source.refs()] == list(
            source.iter_documents()
        )

    @settings(max_examples=15, deadline=None)
    @given(
        files=st.dictionaries(
            st.lists(_NAMES, min_size=1, max_size=3).map("/".join),
            st.text(alphabet="abc <>#*\n", max_size=40),
            min_size=1,
            max_size=5,
        ),
    )
    def test_directory_refs_load_what_iteration_yields(self, files):
        document = next(SyntheticSource(CorpusConfig(n_documents=1)).iter_documents())
        with tempfile.TemporaryDirectory() as root:
            for name, text in files.items():
                path = Path(root) / (name + ".simpdf")
                path.parent.mkdir(parents=True, exist_ok=True)
                named = dataclasses.replace(document, doc_id=name + text)
                path.write_bytes(serialize_document(named))
            source = create_source(SourceSpec("simpdf-dir", {"path": root, "glob": RECURSIVE}))
            refs = list(source.refs())
            assert [ref.locator for ref in refs] == [
                path.relative_to(root).as_posix() for path in source.paths()
            ]
            assert [source.load(ref) for ref in refs] == list(source.iter_documents())


# ---------------------------------------------------------------------- #
# The listing, pinned: what each glob lists, with what stamp and key
# ---------------------------------------------------------------------- #
#: ``size:mtime_ns`` of each regular file below is fixed, so stamps and keys are.
_PINNED_FILES = {
    "top.simpdf": 1,
    "a/b/z.simpdf": 2,
    "a/y.simpdf": 3,
    "a-b/w.simpdf": 4,
    ".hidden.simpdf": 5,
    ".hid/h.simpdf": 6,
    "real/r.simpdf": 7,
    "X.SIMPDF": 8,
    "axis.txt": 9,
}


@pytest.fixture
def pinned_tree(tmp_path, monkeypatch) -> Path:
    """Every case the listing has to get right, under the relative root ``pins``.

    Hidden names, a directory symlink (``linkdir``), a file symlink
    (``link.simpdf``), a dangling link, a directory that matches ``*.simpdf``
    and an upper-case suffix.  The root is relative so that keys, which hash
    the spec's path, are the same wherever the test runs.
    """
    monkeypatch.chdir(tmp_path)
    root = Path("pins")
    for name, size in _PINNED_FILES.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"x" * size)
        os.utime(path, ns=(1_700_000_000_000_000_000 + size * 10**9,) * 2)
    (root / "linkdir").symlink_to("real", target_is_directory=True)
    (root / "link.simpdf").symlink_to(Path("a") / "y.simpdf")
    (root / "dangling.simpdf").symlink_to("nowhere.simpdf")
    (root / "dir.simpdf").mkdir()
    return root


_ALL_SIMPDF = [
    ".hid/h.simpdf",
    ".hidden.simpdf",
    "a/b/z.simpdf",
    "a/y.simpdf",
    "a-b/w.simpdf",
    "link.simpdf",
    "real/r.simpdf",
    "top.simpdf",
]


class TestListingPins:
    @pytest.mark.parametrize(
        ("glob", "locators"),
        [
            ("*.simpdf", [".hidden.simpdf", "link.simpdf", "top.simpdf"]),
            # ``**`` does not descend into ``linkdir``; ``a/b/z`` sorts before ``a-b/w``.
            ("**/*.simpdf", _ALL_SIMPDF),
            # A wildcard middle component does follow ``linkdir``.
            (
                "*/*.simpdf",
                [
                    ".hid/h.simpdf",
                    "a/y.simpdf",
                    "a-b/w.simpdf",
                    "linkdir/r.simpdf",
                    "real/r.simpdf",
                ],
            ),
            # Reached twice, listed once.
            ("**/**/*.simpdf", _ALL_SIMPDF),
            ("a*/*.simpdf", ["a/y.simpdf", "a-b/w.simpdf"]),
            # Directories are dropped; matching is case-sensitive.
            ("[ax]*", ["axis.txt"]),
        ],
    )
    def test_locators_stamps_and_count_per_glob(self, pinned_tree, glob, locators):
        source = SimPdfDirSource(pinned_tree, glob=glob)
        refs = list(source.refs())
        assert [ref.locator for ref in refs] == locators
        for ref in refs:
            stat = os.stat(pinned_tree / ref.locator)
            assert ref.stamp == f"{stat.st_size}:{stat.st_mtime_ns}"
        assert source.paths() == [pinned_tree / locator for locator in locators]

    @pytest.mark.parametrize("glob", ["*.simpdf", "**/*.simpdf", "*/*.simpdf", "**/**/*.simpdf"])
    def test_the_listing_stats_each_candidate_once(self, pinned_tree, monkeypatch, glob):
        # ``**/**`` reaches ``a/y.simpdf`` twice; the dangling link and the
        # directory named ``dir.simpdf`` are stat'ed once and dropped.
        source = SimPdfDirSource(pinned_tree, glob=glob)
        stats: list[str] = []
        stat = os.stat

        def counting_stat(path, *args, **kwargs):
            stats.append(os.fspath(path))
            return stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", counting_stat)
        listed = [locator for locator, _ in source._listing()]
        dropped = [] if glob == "*/*.simpdf" else ["dangling.simpdf", "dir.simpdf"]
        assert sorted(stats) == sorted(
            [os.fspath(pinned_tree)]  # the root's is-a-directory check
            + [os.fspath(pinned_tree / locator) for locator in listed + dropped]
        )

    def test_stamps_follow_links(self, pinned_tree):
        stamps = {
            ref.locator: ref.stamp
            for ref in SimPdfDirSource(pinned_tree, glob="*/*.simpdf").refs()
        }
        assert stamps["linkdir/r.simpdf"] == stamps["real/r.simpdf"] == (
            "7:1700000007000000000"
        )
        (link,) = (
            ref for ref in SimPdfDirSource(pinned_tree).refs() if ref.locator == "link.simpdf"
        )
        assert link.stamp == "3:1700000003000000000"

    def test_keys_and_fingerprint_are_pinned(self, pinned_tree):
        source = SimPdfDirSource(pinned_tree, glob="**/*.simpdf")
        keys = {ref.locator: ref.key() for ref in source.refs()}
        assert [keys["a/b/z.simpdf"], keys["a-b/w.simpdf"], keys["top.simpdf"]] == [
            "a1993ceb401d0e6c78539a33cf6a33cb",
            "387fb7c16d2b2320312941005dd779d8",
            "484c4a5dace38573c6d7293950a6ed09",
        ]
        assert source.fingerprint() == "497582176665ef3e88e082afd4c1edfc"

    def test_a_keyed_ref_survives_pickle_and_deepcopy(self, pinned_tree):
        ref = next(SimPdfDirSource(pinned_tree, glob="**/*.simpdf").refs())
        key = ref.key()
        for copied in (pickle.loads(pickle.dumps(ref)), copy.deepcopy(ref)):
            assert copied == ref
            assert copied.key() == key
            assert copied.source.options_json == ref.source.options_json
