"""Level-2 repo contract linter: clean tree, dirty sources, CLI exit.

The linter's own contract has the same two halves as the program
verifier's: the committed tree must lint clean (its findings gate CI),
and seeded contract violations — nondeterminism primitives, unsorted
hashing, set iteration, bare excepts, missing serializer fields,
unregistered subclasses — must each fire their rule.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.verify.lint import (
    KEY_DERIVATION_SOURCES,
    lint_repo,
    lint_sources,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SERIALIZE = "src/repro/search/service/serialize.py"


@pytest.fixture(scope="module")
def clean_sources():
    from repro.verify.lint import _scan_paths

    return {
        path.relative_to(REPO_ROOT).as_posix(): path.read_text(
            encoding="utf-8"
        )
        for path in _scan_paths(REPO_ROOT)
        if path.is_file()
    }


def test_committed_tree_lints_clean():
    findings = lint_repo(REPO_ROOT)
    assert findings == [], "\n".join(f.format() for f in findings)


def test_missing_configured_module_is_a_finding(clean_sources):
    sources = dict(clean_sources)
    del sources[SERIALIZE]
    rules = {f.rule for f in lint_sources(sources)}
    assert "L001" in rules


def _with_appended(clean_sources, path, text):
    sources = dict(clean_sources)
    sources[path] = sources[path] + text
    return sources


@pytest.mark.parametrize(
    "snippet, rule",
    [
        ("\nimport time\n_STAMP = time.time()\n", "L301"),
        ("\nimport random\n_SALT = random.random()\n", "L301"),
        ("\n_BAD_HASH = hash((1, 2))\n", "L301"),
        ("\nimport json as _json\n_RAW = json.dumps({'a': 1})\n", "L302"),
        ("\n_ORDERED = [x for x in {1, 2, 3}]\n", "L303"),
    ],
)
def test_nondeterminism_in_key_derivation_modules(clean_sources, snippet, rule):
    assert SERIALIZE in KEY_DERIVATION_SOURCES
    sources = _with_appended(clean_sources, SERIALIZE, snippet)
    rules = {f.rule for f in lint_sources(sources)}
    assert rule in rules


def test_bare_except_in_service_code(clean_sources):
    snippet = "\ndef _swallow():\n    try:\n        pass\n    except:\n        pass\n"
    sources = _with_appended(
        clean_sources, "src/repro/search/service/service.py", snippet
    )
    rules = {f.rule for f in lint_sources(sources)}
    assert "L401" in rules


def test_unhandled_schedule_kind_is_a_finding(clean_sources):
    sources = dict(clean_sources)
    path = "src/repro/parallel/config.py"
    sources[path] = sources[path].replace(
        '    HYBRID = "hybrid"',
        '    HYBRID = "hybrid"\n    MUTANT = "mutant"',
        1,
    )
    findings = lint_sources(sources)
    assert any(
        f.rule == "L202" and "MUTANT" in f.message for f in findings
    )


def test_not_serialized_marker_suppresses_coverage(clean_sources):
    # Every SearchSettings field is hashed, so no field in the tree
    # carries the marker: seed one that no serializer mentions.
    sources = dict(clean_sources)
    cell = "src/repro/search/cell.py"
    anchor = "    objective: Objective = field(default=DEFAULT_OBJECTIVE)\n"
    marker = "  # lint: not-serialized (seeded)"
    assert anchor in sources[cell]
    sources[cell] = sources[cell].replace(
        anchor, f"{anchor}    seeded_knob: bool = False{marker}\n", 1
    )
    assert not any(
        f.rule == "L101" and "seeded_knob" in f.message
        for f in lint_sources(sources)
    )
    # Removing the marker makes the same field a finding.
    sources[cell] = sources[cell].replace(marker, "", 1)
    assert any(
        f.rule == "L101" and "seeded_knob" in f.message
        for f in lint_sources(sources)
    )


class TestScalarCostRule:
    GRID = "src/repro/search/grid.py"

    def test_scalar_table_call_in_hot_path_is_a_finding(self, clean_sources):
        snippet = (
            "\ndef _sneaky(spec, cluster, calibration, impl):\n"
            "    return stage_time_table(\n"
            "        spec, cluster, calibration, impl, 2, 1, 1, 1\n"
            "    )\n"
        )
        sources = _with_appended(clean_sources, self.GRID, snippet)
        findings = lint_sources(sources)
        assert any(
            f.rule == "L502" and self.GRID in f.location for f in findings
        )

    def test_private_table_call_also_fires(self, clean_sources):
        snippet = (
            "\nfrom repro.sim import cost as _cost\n"
            "def _sneakier(key):\n"
            "    return _cost._stage_time_table(*key)\n"
        )
        sources = _with_appended(
            clean_sources, "src/repro/sim/cost_batch.py", snippet
        )
        rules = {f.rule for f in lint_sources(sources)}
        assert "L502" in rules

    def test_marker_suppresses_the_seam(self, clean_sources):
        snippet = (
            "\ndef _seam(key):\n"
            "    return stage_time_table(*key)  # lint: scalar-cost-ok\n"
        )
        sources = _with_appended(clean_sources, self.GRID, snippet)
        assert not any(f.rule == "L502" for f in lint_sources(sources))

    def test_cache_object_access_never_flags(self, clean_sources):
        # The batch seam itself: .seed/.seeded/.cache_info are attribute
        # calls on the cache object, not scalar pricing.  The committed
        # tree already uses all of them and lints clean
        # (test_committed_tree_lints_clean), but hold the distinction
        # explicitly against a rewrite of the rule.
        snippet = (
            "\ndef _peek():\n"
            "    return stage_time_table.cache_info()\n"
        )
        sources = _with_appended(clean_sources, self.GRID, snippet)
        assert not any(f.rule == "L502" for f in lint_sources(sources))


class TestBlockingOnLoopRule:
    CORE = "src/repro/planner/core.py"
    HTTP = "src/repro/planner/http.py"

    def test_blocking_call_in_coroutine_is_a_finding(self, clean_sources):
        snippet = (
            "\nasync def _sneaky(self, key):\n"
            "    return self._store.load(key)\n"
        )
        sources = _with_appended(clean_sources, self.CORE, snippet)
        findings = lint_sources(sources)
        assert any(
            f.rule == "L503" and self.CORE in f.location for f in findings
        )

    def test_filesystem_and_sleep_calls_fire(self, clean_sources):
        snippet = (
            "\nimport time\n"
            "async def _stall(path):\n"
            "    time.sleep(0.1)\n"
            "    return open(path).read()\n"
        )
        sources = _with_appended(clean_sources, self.HTTP, snippet)
        flagged = [f for f in lint_sources(sources) if f.rule == "L503"]
        assert len(flagged) == 2

    def test_marker_suppresses_a_deliberate_call(self, clean_sources):
        snippet = (
            "\nasync def _tiny(self, key):\n"
            "    return self._store.load(key)  # lint: blocking-ok\n"
        )
        sources = _with_appended(clean_sources, self.CORE, snippet)
        assert not any(f.rule == "L503" for f in lint_sources(sources))

    def test_sync_functions_and_references_never_flag(self, clean_sources):
        # Blocking work is fine off the loop (sync helpers) and as a
        # *reference* handed to run_in_executor — only direct on-loop
        # invocation is the defect.  asyncio.sleep is the sanctioned
        # async form and must not trip the time.sleep ban.
        snippet = (
            "\nimport asyncio\n"
            "def _helper(self, key):\n"
            "    return self._store.load(key)\n"
            "async def _offloaded(self, loop, key):\n"
            "    await asyncio.sleep(0)\n"
            "    return await loop.run_in_executor(\n"
            "        None, self._store.load, key\n"
            "    )\n"
        )
        sources = _with_appended(clean_sources, self.CORE, snippet)
        assert not any(f.rule == "L503" for f in lint_sources(sources))

    def test_nested_sync_helper_inside_coroutine_never_flags(
        self, clean_sources
    ):
        # The CLI-test idiom: define a sync closure inside the coroutine
        # and hand it to an executor.  The closure body is a separate
        # frame, not loop-time code.
        snippet = (
            "\nasync def _with_closure(self, loop, key):\n"
            "    def _read():\n"
            "        return self._store.load(key)\n"
            "    return await loop.run_in_executor(None, _read)\n"
        )
        sources = _with_appended(clean_sources, self.HTTP, snippet)
        assert not any(f.rule == "L503" for f in lint_sources(sources))


class TestUnhashedLoadRule:
    CHECKPOINT = "src/repro/search/service/checkpoint.py"

    def test_unvalidated_json_load_is_a_finding(self, clean_sources):
        snippet = (
            "\ndef _sneaky_load(path):\n"
            "    import json\n"
            "    return json.loads(Path(path).read_bytes())\n"
        )
        sources = _with_appended(clean_sources, self.CHECKPOINT, snippet)
        findings = lint_sources(sources)
        assert any(
            f.rule == "L504" and self.CHECKPOINT in f.location
            for f in findings
        )

    def test_unvalidated_struct_unpack_also_fires(self, clean_sources):
        snippet = (
            "\ndef _raw_decode(blob):\n"
            "    return struct.unpack('<4i', blob[:16])\n"
        )
        sources = _with_appended(clean_sources, self.CHECKPOINT, snippet)
        rules = {f.rule for f in lint_sources(sources)}
        assert "L504" in rules

    def test_marker_suppresses_a_prevalidated_helper(self, clean_sources):
        snippet = (
            "\ndef _decode_checked(blob):\n"
            "    return struct.unpack('<4i', blob)  # lint: unhashed-load-ok\n"
        )
        sources = _with_appended(clean_sources, self.CHECKPOINT, snippet)
        assert not any(f.rule == "L504" for f in lint_sources(sources))

    def test_digest_verified_frame_never_flags(self, clean_sources):
        snippet = (
            "\ndef _verified_load(blob, expected):\n"
            "    import json\n"
            "    if hashlib.sha256(blob).hexdigest() != expected:\n"
            "        raise ValueError('content hash mismatch')\n"
            "    return json.loads(blob)\n"
        )
        sources = _with_appended(clean_sources, self.CHECKPOINT, snippet)
        assert not any(f.rule == "L504" for f in lint_sources(sources))

    def test_key_echo_check_counts_as_validation(self, clean_sources):
        # The checkpoint pattern: the filename is the content hash and
        # the envelope must echo it.  CheckpointStore.load/
        # load_timing_record rely on this (the committed tree lints
        # clean); hold the signal explicitly against a rule rewrite.
        snippet = (
            "\ndef _keyed_load(path, key):\n"
            "    data = json.loads(path.read_bytes())\n"
            "    if data.get('key') != key:\n"
            "        return None\n"
            "    return data\n"
        )
        sources = _with_appended(clean_sources, self.CHECKPOINT, snippet)
        assert not any(f.rule == "L504" for f in lint_sources(sources))

    def test_removing_load_key_echo_check_fires(self, clean_sources):
        # The mutation the rule exists for: strip the key-echo check out
        # of CheckpointStore.load and its json read becomes a finding.
        sources = dict(clean_sources)
        guard = (
            '            if envelope.get("key") != key:\n'
            '                raise ValueError(\n'
            '                    f"key mismatch: file says {envelope.get(\'key\')!r}"\n'
            '                )\n'
        )
        assert guard in sources[self.CHECKPOINT]
        sources[self.CHECKPOINT] = sources[self.CHECKPOINT].replace(
            guard, "", 1
        )
        findings = lint_sources(sources)
        assert any(
            f.rule == "L504" and self.CHECKPOINT in f.location
            for f in findings
        )


def test_cli_lint_and_zoo_exit_zero(capsys):
    from repro.verify.cli import main

    assert main(["--lint", "--zoo"]) == 0
    out = capsys.readouterr().out
    assert "clean" in out
    assert "verify: OK" in out
