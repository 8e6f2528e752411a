"""CollTable / CollPolicy / CollTuner + the ``repro tune --coll`` CLI."""

import io
import json

import numpy as np
import pytest

from repro.coll import (ALGORITHMS, CollPolicy, CollTable, CollTableError,
                        CollTuner, DEFAULT_ALGORITHM, ENV_TABLE, SCHEMA_NAME,
                        SCHEMA_VERSION, migrate_v1, resolve_policy,
                        validate_table)


def _tuner(machine="perlmutter", gpus=64):
    return CollTuner(machine, gpus)


def test_table_roundtrip(tmp_path):
    t = _tuner()
    table = t.build_table()
    path = tmp_path / "table.json"
    table.save(str(path))
    doc = json.loads(path.read_text())
    assert doc["schema"] == SCHEMA_NAME
    loaded = CollTable.load(str(path))
    assert loaded.entries == table.entries
    assert loaded.machine == table.machine


def test_table_lookup_bands():
    """Band ceilings are exclusive: a message exactly at a band edge
    belongs to the *upper* band, matching CollTuner.best's convention."""
    table = CollTable(machine="perlmutter")
    table.set_bands("sig", "gpuccl", "all_reduce",
                    [(1024, "recdbl"), (1 << 20, "hier"), (None, "ring")])
    look = lambda n: table.lookup("sig", "gpuccl", "all_reduce", n)
    assert look(64) == "recdbl"
    assert look(1023) == "recdbl"
    assert look(1024) == "hier"  # at the edge: upper band wins
    assert look((1 << 20) - 1) == "hier"
    assert look(1 << 20) == "ring"
    assert look(64 << 20) == "ring"
    assert table.lookup("sig", "gpuccl", "broadcast", 64) is None
    assert table.lookup("other", "gpuccl", "all_reduce", 64) is None


def test_table_lookup_agrees_with_best_at_band_edges():
    """Regression for the band-boundary off-by-one: at every probe size —
    including the exact sizes where the winner changes — the table lookup
    must return the same selection CollTuner.best scores."""
    t = _tuner(gpus=8)
    table = t.build_table()
    sig = t.topo.signature()
    for backend in t.backends():
        for kind in ("all_reduce", "all_gather"):
            for size in t.PROBE_SIZES:
                best, _ = t.best(backend, kind, size)
                got = table.lookup(sig, backend, kind, size)
                assert got.describe() == best.describe(), (
                    f"{backend}/{kind}@{size}: table={got.describe()} "
                    f"best={best.describe()}")


def test_tuner_selects_differently_small_vs_large():
    """Acceptance: at 64 GPUs the small- and large-message winners differ
    on at least two machine presets."""
    differing = 0
    for machine in ("perlmutter", "lumi"):
        t = _tuner(machine)
        small, _ = t.best("gpuccl", "all_reduce", 64)
        large, _ = t.best("gpuccl", "all_reduce", 32 << 20)
        if small != large:
            differing += 1
            assert large == "ring"  # bandwidth-optimal ring must win large
    assert differing >= 2


def test_crossovers_reported():
    t = _tuner()
    cross = t.crossovers("gpuccl", "all_reduce")
    assert cross, "expected at least one selection crossover at 64 GPUs"
    for nbytes, small_sel, large_sel in cross:
        assert small_sel.describe() != large_sel.describe()
        assert nbytes in t.PROBE_SIZES


def test_protocol_crossover_ll_to_simple():
    """The paper's LL-wins-small / Simple-wins-large transition appears on
    at least two machine profiles for the GPU kernel backend."""
    for machine in ("perlmutter", "lumi"):
        t = _tuner(machine, gpus=8)
        small, _ = t.best("gpuccl", "all_reduce", 64)
        large, _ = t.best("gpuccl", "all_reduce", 32 << 20)
        assert small.protocol == "LL", (machine, small.describe())
        assert large.protocol == "Simple", (machine, large.describe())


def test_build_table_band_structure():
    table = _tuner().build_table()
    for backends in table.entries.values():
        for kinds in backends.values():
            for bands in kinds.values():
                assert bands[-1][0] is None  # last band open-ended
                ceilings = [band[0] for band in bands[:-1]]
                assert ceilings == sorted(ceilings)
                for _, algo, protocol, channels in bands:
                    assert algo in ALGORITHMS or algo in DEFAULT_ALGORITHM.values()
                    assert protocol in (None, "LL", "LL128", "Simple")
                    assert isinstance(channels, int) and channels >= 1


def test_policy_from_table_respects_bands():
    t = _tuner()
    table = t.build_table()
    policy = CollPolicy.from_table(table)
    small = policy.select("gpuccl", "all_reduce", 64, t.topo)
    large = policy.select("gpuccl", "all_reduce", 32 << 20, t.topo)
    assert small != large
    # Unknown signature -> stay on the legacy path.
    other = CollTuner("marenostrum5", 8).topo
    assert policy.select("gpuccl", "all_reduce", 64, other) is None


def test_policy_fixed_falls_back_when_inapplicable():
    topo = CollTuner("perlmutter", 7).topo
    policy = CollPolicy.fixed("bruck")  # bruck is allgather-only
    assert policy.select("mpi", "all_reduce", 64, topo) is None
    assert policy.select("mpi", "all_gather", 64, topo) == "bruck"


def test_schema_rejects_malformed_tables():
    good = _tuner().build_table().to_doc()
    bad_cases = [
        {**good, "schema": "something.else"},
        {**good, "version": 99},
        {**good, "machine": None},
        {**good, "entries": {"sig": {"gpuccl": {"all_reduce": []}}}},
        {**good, "entries": {"sig": {"gpuccl": {"all_reduce": [[64, "ring"]]}}}},
        {**good, "entries": {"sig": {"gpuccl": {"all_reduce": [[None, ""]]}}}},
        {**good, "entries": {"sig": {"gpuccl": {"bogus_kind":
                                                [[None, "ring"]]}}}},
        {**good, "entries": {"sig": {"bogus_backend": {"all_reduce":
                                                       [[None, "ring"]]}}}},
    ]
    for doc in bad_cases:
        with pytest.raises(ValueError):
            validate_table(doc)


def test_resolve_policy_forms(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_TABLE, raising=False)
    assert resolve_policy(None) is None
    assert resolve_policy(False) is None
    assert resolve_policy("off") is None
    assert resolve_policy("auto").mode == "auto"
    assert resolve_policy("ring").mode == "fixed"
    table = _tuner().build_table()
    path = tmp_path / "t.json"
    table.save(str(path))
    assert resolve_policy(str(path)).mode == "table"
    monkeypatch.setenv(ENV_TABLE, str(path))
    env_policy = resolve_policy(None)
    assert env_policy is not None and env_policy.mode == "table"
    with pytest.raises(ValueError):
        resolve_policy("no-such-algorithm")
    with pytest.raises(TypeError):
        resolve_policy(42)


def test_v1_table_migrates_losslessly(tmp_path):
    """A v1 document (inclusive [max_nbytes, algorithm] bands) loads
    through migrate_v1: every integer size resolves to the same algorithm
    as the v2 original, with legacy protocol/channels."""
    t = _tuner(gpus=8)
    table = t.build_table()
    sig = t.topo.signature()
    v1_entries = {}
    for s, backends in table.entries.items():
        v1_entries[s] = {
            backend: {
                kind: [[None if c is None else c - 1, str(algo)]
                       for c, algo, _prot, _ch in bands]
                for kind, bands in kinds.items()
            }
            for backend, kinds in backends.items()
        }
    v1 = {"schema": SCHEMA_NAME, "version": 1,
          "machine": table.machine, "entries": v1_entries}
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(v1))
    loaded = CollTable.load(str(path))
    for backend in t.backends():
        for kind in ("all_reduce", "all_gather"):
            for size in t.PROBE_SIZES:
                got = loaded.lookup(sig, backend, kind, size)
                want = table.lookup(sig, backend, kind, size)
                assert str(got) == str(want), (backend, kind, size)
                assert got.protocol is None and got.channels == 1
    # Direct migrate_v1 output is itself a valid v2 document.
    validate_table(migrate_v1(v1))


def test_unknown_schema_version_raises_coll_table_error():
    """A future (or garbage) version must fail loudly with CollTableError,
    never a KeyError from half-parsed entries."""
    doc = _tuner(gpus=8).build_table().to_doc()
    for version in (3, 99, None, "2"):
        bad = {**doc, "version": version}
        try:
            CollTable.from_doc(bad)
        except CollTableError:
            pass
        else:
            raise AssertionError(f"version {version!r} accepted")


def test_env_table_signature_mismatch_warns_and_falls_back(tmp_path,
                                                           monkeypatch):
    """A REPRO_COLL_TABLE tuned for another machine must not be applied
    (wrong crossovers) and must not silently disable tuning: warn once,
    then auto selection takes over."""
    import warnings

    from repro._compat import _warned

    table = CollTuner("lumi", 8).build_table()
    path = tmp_path / "lumi.json"
    table.save(str(path))
    monkeypatch.setenv(ENV_TABLE, str(path))
    policy = resolve_policy(None)
    assert policy is not None and policy.env_source
    topo = CollTuner("perlmutter", 8).topo
    _warned.discard(f"coll-table-mismatch:{topo.signature()}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sel = policy.select("gpuccl", "all_reduce", 64, topo)
    assert sel is not None  # auto fallback picked a selection
    msgs = [str(w.message) for w in caught]
    assert any("falling back to auto selection" in m for m in msgs), msgs
    # An explicitly passed mismatched table keeps the historical contract:
    # signature miss -> no selection (legacy path), no warning.
    explicit = CollPolicy.from_table(table)
    assert explicit.select("gpuccl", "all_reduce", 64, topo) is None


def test_cli_tune_coll_dump(tmp_path):
    from repro.cli import main

    dest = tmp_path / "coll_table.json"
    out = io.StringIO()
    rc = main(["tune", "--coll", "--gpus", "64", "--machine", "perlmutter",
               "--dump", str(dest)], out=out)
    assert rc == 0
    assert "schema valid" in out.getvalue()
    doc = json.loads(dest.read_text())
    validate_table(doc)
    table = CollTable.from_doc(doc)
    sig = CollTuner("perlmutter", 64).topo.signature()
    assert table.lookup(sig, "gpuccl", "all_reduce", 32 << 20) == "ring"


# --------------------------------------------------------------------- #
# The shared schedule memo.
# --------------------------------------------------------------------- #


def _fingerprint(sched):
    return [{rank: [(type(st).__name__,) + tuple(getattr(st, a)
                                                  for a in st.__slots__)
                    for st in steps]
             for rank, steps in rnd.items()}
            for rnd in sched.rounds]


def test_table_build_generates_each_schedule_once(monkeypatch):
    """The three backend models share one memo: a 64-GPU table build
    generates every distinct schedule exactly once."""
    from collections import Counter

    from repro.coll import algorithms

    calls = Counter()
    real = algorithms.generate

    def counting(algorithm, kind, nranks, count, *, topo=None, root=0):
        calls[(algorithm, kind, nranks, count, root)] += 1
        return real(algorithm, kind, nranks, count, topo=topo, root=root)

    monkeypatch.setattr(algorithms, "_MEMO", algorithms.LruMemo())
    monkeypatch.setattr(algorithms, "generate", counting)
    _tuner().build_table()
    assert calls and set(calls.values()) == {1}
    assert len(calls) == len(algorithms._MEMO) <= algorithms.MEMO_SIZE


def test_mpi_executor_leaves_memoized_schedule_unchanged(monkeypatch):
    """Every rank's executor runs the one shared instance; running it
    must leave it equal to a fresh generation."""
    from repro.coll import algorithms, generate
    from repro.core import Memory
    from tests.core.conftest import uniconn_run

    monkeypatch.delenv(ENV_TABLE, raising=False)
    monkeypatch.setattr(algorithms, "_MEMO", algorithms.LruMemo())
    p, count = 7, 12

    def body(env, comm, coord):
        send = Memory.alloc(env, count)
        recv = Memory.alloc(env, count)
        send.write(np.arange(count, dtype=np.float64))
        coord.all_reduce(send, recv, count, "sum", comm)
        coord.stream.synchronize()
        return recv.read().copy()

    report = uniconn_run(p, "mpi", body, coll="ring")
    for rank in range(p):
        np.testing.assert_array_equal(report[rank], p * np.arange(count))
    [(key, shared)] = algorithms._MEMO.items()
    assert key[:5] == ("ring", "all_reduce", p, count, 0)
    assert _fingerprint(shared) == _fingerprint(
        generate("ring", "all_reduce", p, count))
