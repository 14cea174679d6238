"""Planner service: memo hits, coalescing, seeding, protocol, HTTP.

The acceptance contract of the planner refactor, end to end:

- **Byte identity** — an exact-hit answer, whether the planner held it
  in memory or loaded it from disk (and a neighbor-seeded one), must
  equal a cold ``best_configuration`` checkpoint byte for byte, for
  every objective kind.  Memoization and warm starts are allowed to
  change *latency*, never *answers*.
- **Coalescing** — N identical concurrent queries run exactly one
  ``search.grid`` span.
- **Wire protocol** — requests validate loudly, answers round-trip
  through JSON, and the stdlib HTTP front-end serves /plan, /presets
  and /healthz.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry, recording
from repro.planner import core as planner_core
from repro.planner import http as planner_http
from repro.planner import (
    PlanRequest,
    Planner,
    query_key,
    request_from_json,
    request_to_json,
    start_planner_server,
)
from repro.search.cell import SweepCell
from repro.search.grid import best_configuration
from repro.search.objective import OBJECTIVE_KINDS
from repro.search.service.serialize import (
    canonical_dumps,
    cell_key,
    outcome_to_json,
)

MODEL = "6.6B"
CLUSTER = "dgx1-64"
BF = "Breadth-first"


#: (field, value) pairs a client might send instead of the JSON type the
#: wire protocol requires; each must be refused, never coerced (``"16"``
#: once planned batches 1 and 6, ``"false"`` turned the hybrid axis on).
MISTYPED_FIELDS = [
    ("batch_sizes", "16"),
    ("batch_sizes", [8.5]),
    ("batch_sizes", [True]),
    ("batch_sizes", 8),
    ("include_hybrid", "false"),
    ("include_hybrid", 0),
    ("methods", "Breadth-first"),
    ("methods", [1]),
    ("model", 6.6),
    ("cluster", None),
    ("objective", ["throughput"]),
    ("memory_headroom", "0.8"),
    ("memory_headroom", True),
]


def _request(batch_sizes=(8,), **overrides):
    fields = dict(
        model=MODEL,
        cluster=CLUSTER,
        batch_sizes=tuple(batch_sizes),
        methods=(BF,),
    )
    fields.update(overrides)
    return PlanRequest(**fields)


def _plan(planner, request):
    return asyncio.run(planner.plan(request))


def _span_count(registry, name):
    return sum(1 for s in registry.snapshot()["spans"] if s["name"] == name)


class TestAnswers:
    @pytest.mark.parametrize("objective", sorted(OBJECTIVE_KINDS))
    def test_exact_hit_is_byte_identical_to_cold_search(
        self, tmp_path, objective
    ):
        request = _request(objective=objective)
        with Planner(tmp_path) as planner:
            first = _plan(planner, request)
            # The same planner answers again from memory.
            held = _plan(planner, request)
        assert first.sources == ("computed",)
        assert held.sources == ("exact",)

        # A fresh planner over the same directory answers from the memo.
        with Planner(tmp_path) as planner:
            again = _plan(planner, request)
            resolved = request.resolve()
            key = again.cell_keys[0]
            assert again.sources == ("exact",)
            assert again.query_key == query_key(resolved, planner.calibration)
            assert again.outcomes == first.outcomes
            assert again.best == first.best

            # The memoized checkpoint is the cold search's, byte for byte.
            cell = resolved
            cold = best_configuration(
                cell.spec,
                cell.cluster,
                cell.methods[0],
                cell.batch_sizes[0],
                planner.calibration,
                cell.settings,
            )
            checkpoint = planner.store.path_for(key).read_bytes()
            assert checkpoint == planner.store.payload_bytes(key, cold)
            # So are the computed, the held and the loaded answers.
            expected = canonical_dumps(outcome_to_json(cold))
            for answer in (first, held, again):
                assert answer.cell_keys == (key,)
                (outcome,) = answer.outcomes
                assert canonical_dumps(outcome_to_json(outcome)) == expected
                assert planner.store.payload_bytes(key, outcome) == checkpoint

    def test_a_held_answer_outlives_its_deleted_checkpoint(self, tmp_path):
        # A planner answers a cell it holds from memory, even once the
        # cell's file is gone; a fresh planner searches it again.
        request = _request()
        with Planner(tmp_path) as planner:
            first = _plan(planner, request)
            planner.store.path_for(first.cell_keys[0]).unlink()
            held = _plan(planner, request)
        assert held.sources == ("exact",)
        assert held.outcomes == first.outcomes
        with Planner(tmp_path) as planner:
            fresh = _plan(planner, request)
            assert planner.store.path_for(first.cell_keys[0]).exists()
        assert fresh.sources == ("computed",)
        assert fresh.outcomes == first.outcomes

    def test_memory_keeps_the_newest_answers(self, tmp_path, monkeypatch):
        # One entry per map: the second cell pushes the first out, so
        # once both files are gone only the second is still answered.
        monkeypatch.setattr(planner_core, "_MEMORY_ENTRIES", 1)
        older, newer = _request(batch_sizes=(8,)), _request(batch_sizes=(16,))
        with Planner(tmp_path) as planner:
            answers = [_plan(planner, request) for request in (older, newer)]
            for answer in answers:
                planner.store.path_for(answer.cell_keys[0]).unlink()
            held = _plan(planner, newer)
            evicted = _plan(planner, older)
        assert held.sources == ("exact",)
        assert evicted.sources == ("computed",)
        assert evicted.outcomes == answers[0].outcomes

    def test_equal_requests_share_one_key(self, tmp_path):
        # 1 == 1.0, and a headroom of 1 hashes like one of 1.0: the
        # planner answers both under one query key and one cell key.
        requests = [
            _request(objective="memory-constrained", memory_headroom=headroom)
            for headroom in (1.0, 1)
        ]
        assert requests[0] == requests[1]
        with Planner(tmp_path) as planner:
            answers = [_plan(planner, request) for request in requests]
            expected = {
                query_key(request.resolve(), planner.calibration)
                for request in requests
            }
        assert len(expected) == 1
        assert {answer.query_key for answer in answers} == expected
        assert answers[0].cell_keys == answers[1].cell_keys
        assert answers[1].sources == ("exact",)

    def test_cell_keys_match_the_sweep_service_scheme(self, tmp_path):
        # A plan decomposes into exactly the cell keys a sweep over the
        # same context would compute — that is what lets the planner
        # serve exact hits out of an existing sweep checkpoint dir.
        request = _request(batch_sizes=(8, 16), methods=(BF, "Depth-first"))
        with Planner(tmp_path) as planner:
            answer = _plan(planner, request)
            resolved = request.resolve()
            expected = tuple(
                cell_key(
                    resolved.spec,
                    resolved.cluster,
                    planner.calibration,
                    SweepCell(method, batch),
                    resolved.settings,
                )
                for method in resolved.methods
                for batch in resolved.batch_sizes
            )
        assert answer.cell_keys == expected

    def test_seeded_miss_is_byte_identical_to_cold_search(self, tmp_path):
        with Planner(tmp_path) as planner:
            _plan(planner, _request(batch_sizes=(8,)))
            with recording(MetricsRegistry(actor="test")) as registry:
                answer = _plan(planner, _request(batch_sizes=(16,)))
            assert answer.sources == ("seeded",)
            counters = registry.snapshot()["counters"]
            assert counters["planner.hit.seeded"] == 1
            # The warm-start pass ran (its counter was emitted); the
            # number of *newly* priced families can legitimately be 0
            # here because the in-process B=8 search already warmed them.
            assert "search.warm_start.seeded_families" in counters

            resolved = _request(batch_sizes=(16,)).resolve()
            cold = best_configuration(
                resolved.spec,
                resolved.cluster,
                resolved.methods[0],
                16,
                planner.calibration,
                resolved.settings,
            )
            key = answer.cell_keys[0]
            assert (
                planner.store.path_for(key).read_bytes()
                == planner.store.payload_bytes(key, cold)
            )

    def test_best_ranks_across_cells(self, tmp_path):
        request = _request(batch_sizes=(8, 16))
        with Planner(tmp_path) as planner:
            answer = _plan(planner, request)
        feasible = [o.best for o in answer.outcomes if o.best is not None]
        assert answer.best is not None
        assert answer.best.throughput_per_gpu == max(
            r.throughput_per_gpu for r in feasible
        )


class TestCoalescing:
    def test_identical_concurrent_queries_run_one_search(self, tmp_path):
        request = _request()

        async def fan_out(planner, n):
            return await asyncio.gather(
                *(planner.plan(request) for _ in range(n))
            )

        with Planner(tmp_path) as planner:
            with recording(MetricsRegistry(actor="test")) as registry:
                answers = asyncio.run(fan_out(planner, 4))

        assert _span_count(registry, "search.grid") == 1
        counters = registry.snapshot()["counters"]
        assert counters["planner.coalesced"] == 3
        assert counters["planner.requests"] == 4
        sources = sorted(a.sources[0] for a in answers)
        assert sources == ["coalesced", "coalesced", "coalesced", "computed"]
        # Every follower shares the leader's object, not a re-parse.
        outcomes = {id(a.outcomes[0]) for a in answers}
        assert len(outcomes) == 1

    def test_sequential_queries_do_not_coalesce(self, tmp_path):
        request = _request()
        with Planner(tmp_path) as planner:
            with recording(MetricsRegistry(actor="test")) as registry:
                first = _plan(planner, request)
                second = _plan(planner, request)
        assert first.sources == ("computed",)
        assert second.sources == ("exact",)
        counters = registry.snapshot()["counters"]
        assert "planner.coalesced" not in counters
        assert counters["planner.hit.exact"] == 1
        assert _span_count(registry, "search.grid") == 1


class TestProtocol:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(batch_sizes=()),
            dict(batch_sizes=(0,)),
            dict(batch_sizes=(8, 8)),
        ],
    )
    def test_request_validation_rejects_bad_batches(self, bad):
        with pytest.raises(ValueError):
            _request(**bad)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(batch_sizes=(8.0,)),
            dict(batch_sizes=(True,)),
            dict(batch_sizes=("8",)),
            dict(include_hybrid=1),
            dict(include_hybrid="false"),
        ],
        ids=["float-batch", "bool-batch", "str-batch", "int-hybrid",
             "str-hybrid"],
    )
    def test_requests_refuse_values_equal_to_another_type(self, bad):
        # 8.0 == 8 and 1 == True, but neither serializes like the other:
        # accepted, such a request would equal one whose keys differ.
        with pytest.raises(ValueError, match="must be"):
            _request(**bad)

    def test_requests_hold_their_sequences_as_tuples(self):
        # A request is a hashable key whatever sequence type it was given.
        request = PlanRequest(
            model=MODEL, cluster=CLUSTER, batch_sizes=[8, 16], methods=[BF]
        )
        assert request == _request(batch_sizes=(8, 16))
        assert hash(request) == hash(_request(batch_sizes=(8, 16)))

    def test_request_validation_rejects_duplicate_methods(self):
        # Refused like a repeated batch size: the repeat would answer the
        # same cell twice under a query key of its own.
        with pytest.raises(ValueError, match="duplicate methods"):
            _request(methods=(BF, BF))

    @pytest.mark.parametrize(
        "bad",
        [
            dict(model="no-such-model"),
            dict(cluster="no-such-cluster"),
            dict(objective="no-such-objective"),
            dict(memory_headroom=0.5),  # headroom without memory objective
            dict(methods=("No-such-method",)),
        ],
    )
    def test_resolution_rejects_unknown_names(self, bad):
        with pytest.raises(ValueError):
            _request(**bad).resolve()

    def test_request_round_trips_through_json(self):
        request = _request(
            batch_sizes=(8, 16),
            objective="memory-constrained",
            memory_headroom=0.8,
            include_hybrid=True,
        )
        assert request_from_json(request_to_json(request)) == request

    @pytest.mark.parametrize("field, value", MISTYPED_FIELDS)
    def test_mistyped_fields_are_rejected_by_name(self, field, value):
        data = request_to_json(_request())
        data[field] = value
        with pytest.raises(ValueError, match=field):
            request_from_json(data)

    @pytest.mark.parametrize("field, value", MISTYPED_FIELDS)
    def test_in_process_requests_are_refused_like_wire_ones(
        self, field, value
    ):
        # One validator: a request built in process is refused with the
        # ValueError the wire path gives, word for word.
        data = request_to_json(_request())
        data[field] = value
        with pytest.raises(ValueError) as wire:
            request_from_json(data)
        with pytest.raises(ValueError) as in_process:
            PlanRequest(**data)
        assert str(in_process.value) == str(wire.value)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("memory_headroom", "0.5"),
            ("model", ["52B"]),
            ("cluster", ("dgx1-64",)),
            ("methods", (BF, 7)),
        ],
        ids=["str-headroom", "list-model", "tuple-cluster", "int-method"],
    )
    def test_in_process_mistypes_are_value_errors_naming_the_field(
        self, field, value
    ):
        # Not a TypeError out of resolve(): comparing the headroom with
        # a float, or hashing a list as a preset name.
        overrides = {field: value}
        if field == "memory_headroom":
            overrides["objective"] = "memory-constrained"
        with pytest.raises(ValueError, match=f"'{field}' must be"):
            _request(**overrides).resolve()

    def test_missing_required_field_is_rejected_by_name(self):
        data = request_to_json(_request())
        del data["batch_sizes"]
        with pytest.raises(ValueError, match="batch_sizes"):
            request_from_json(data)

    def test_integral_headroom_is_accepted_as_a_number(self):
        data = request_to_json(
            _request(objective="memory-constrained", memory_headroom=1.0)
        )
        data["memory_headroom"] = 1
        assert request_from_json(data).memory_headroom == 1.0

    def test_unknown_request_fields_are_rejected(self):
        data = request_to_json(_request())
        data["batchsize"] = 8
        with pytest.raises(ValueError, match="batchsize"):
            request_from_json(data)

    def test_empty_methods_mean_all_four(self):
        resolved = _request(methods=()).resolve()
        assert len(resolved.methods) == 4

    def test_query_keys_separate_requests_that_differ(self, tmp_path):
        with Planner(tmp_path) as planner:
            calibration = planner.calibration
        keys = {
            query_key(req.resolve(), calibration)
            for req in (
                _request(),
                _request(batch_sizes=(16,)),
                _request(methods=()),
                _request(objective="pareto"),
            )
        }
        assert len(keys) == 4


class TestHttp:
    def _roundtrip(self, planner, requests):
        """Serve on an ephemeral port; ``(status, JSON body)`` per request."""
        responses = []
        for payload in self._exchange(planner, requests):
            head, _, body = payload.partition(b"\r\n\r\n")
            responses.append((int(head.split()[1]), json.loads(body)))
        return responses

    def _exchange(self, planner, requests):
        """Serve on an ephemeral port; fire raw HTTP/1.1 requests and
        return each raw response."""

        async def run():
            sock = socket.create_server(("127.0.0.1", 0))
            server = await start_planner_server(planner, sock)
            port = server.sockets[0].getsockname()[1]
            responses = []
            async with server:
                for raw in requests:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port
                    )
                    writer.write(raw)
                    await writer.drain()
                    writer.write_eof()
                    responses.append(await reader.read())
                    writer.close()
                    await writer.wait_closed()
            return responses

        return asyncio.run(run())

    @staticmethod
    def _post_plan(request):
        body = json.dumps(request_to_json(request)).encode()
        return (
            b"POST /plan HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
        )

    @pytest.mark.parametrize(
        "raw, status, error",
        [
            (b"POST /plan HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
             400, "unacceptable Content-Length: -1"),
            (b"POST /plan HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n",
             400, "unacceptable Content-Length: 1048577"),
            (b"POST /plan HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
             400, "bad Content-Length: 'abc'"),
            (b"GET /healthz\r\n\r\n", 400, "malformed request line"),
            (b"GET /h\xc3\xa9 HTTP/1.1\r\n\r\n", 400, "malformed request line"),
            (b"GET /healthz HTTP/1.1\r\n" + b"X: y\r\n" * 101 + b"\r\n",
             400, "too many header lines"),
            (b"GET /healthz HTTP/1.1\r\nX: " + b"y" * (1 << 16) + b"\r\n\r\n",
             400, "limit"),
            (b"", 400, "empty request"),
            (b"PUT /plan HTTP/1.1\r\n\r\n", 405, "method not allowed: PUT /plan"),
        ],
        ids=[
            "negative-length", "oversized-length", "non-integer-length",
            "two-part-request-line", "non-ascii-request-line",
            "101-header-lines", "header-over-stream-limit", "empty-request",
            "put-plan",
        ],
    )
    def test_malformed_requests_get_an_error_body(
        self, tmp_path, raw, status, error
    ):
        with Planner(tmp_path) as planner:
            ((got_status, payload),) = self._roundtrip(planner, [raw])
        assert got_status == status
        assert list(payload) == ["error"]
        assert error in payload["error"]

    @pytest.mark.parametrize(
        "method, path, allowed",
        [
            ("GET", "/plan", "POST"),
            ("POST", "/healthz", "GET"),
            ("POST", "/presets", "GET"),
        ],
    )
    def test_a_known_path_with_the_wrong_method_gets_405(
        self, tmp_path, method, path, allowed
    ):
        raw = f"{method} {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode()
        with Planner(tmp_path) as planner:
            (payload,) = self._exchange(planner, [raw])
        head, _, body = payload.partition(b"\r\n\r\n")
        status_line, *header_lines = head.decode("ascii").split("\r\n")
        headers = dict(line.split(": ", 1) for line in header_lines)
        assert status_line == "HTTP/1.1 405 Method Not Allowed"
        assert headers["Allow"] == allowed
        assert json.loads(body) == {
            "error": f"method not allowed: {method} {path}; use {allowed}"
        }

    def test_a_body_shorter_than_its_length_gets_a_400(
        self, tmp_path, monkeypatch
    ):
        # Content-Length promises 50 bytes; the client sends 4, then
        # half-closes (and waits for the answer) or resets the connection
        # (and leaves nobody to answer: the handler must end quietly).
        sent = b"POST /plan HTTP/1.1\r\nContent-Length: 50\r\n\r\nabcd"
        ended = []
        handle = planner_http._handle

        async def watched(planner, reader, writer):
            try:
                await handle(planner, reader, writer)
            except BaseException as exc:
                ended.append(exc)
                raise
            ended.append(None)

        monkeypatch.setattr(planner_http, "_handle", watched)

        def half_close(port):
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                sock.sendall(sent)
                sock.shutdown(socket.SHUT_WR)
                chunks = []
                while chunk := sock.recv(1 << 16):
                    chunks.append(chunk)
            return b"".join(chunks)

        def reset(port):
            sock = socket.create_connection(("127.0.0.1", port), timeout=10)
            sock.sendall(sent)
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            sock.close()

        async def run(planner):
            errors = []
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _loop, ctx: errors.append(ctx))
            sock = socket.create_server(("127.0.0.1", 0))
            server = await start_planner_server(planner, sock)
            port = server.sockets[0].getsockname()[1]
            async with server:
                answer = await asyncio.to_thread(half_close, port)
                await asyncio.to_thread(reset, port)
                while len(ended) < 2:
                    await asyncio.sleep(0.01)
            return answer, errors

        with Planner(tmp_path) as planner:
            answer, errors = asyncio.run(asyncio.wait_for(run(planner), 30))
        head, _, body = answer.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert json.loads(body) == {"error": "body ended after 4 of 50 bytes"}
        assert ended == [None, None]
        assert errors == []

    def test_plan_presets_healthz_and_errors(self, tmp_path):
        request = _request()
        with Planner(tmp_path) as planner:
            _plan(planner, request)  # populate one cell

        # Fresh planner: the preset index sees the solved cell.
        with Planner(tmp_path) as planner:
            assert planner.preset_frontiers() == {
                f"{MODEL}/{CLUSTER}": {BF: [8]}
            }
            responses = self._roundtrip(
                planner,
                [
                    self._post_plan(request),
                    b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
                    b"GET /presets HTTP/1.1\r\nHost: t\r\n\r\n",
                    b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n",
                    b"POST /plan HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 9\r\n\r\nnot json!",
                ],
            )
        (plan_s, plan_b), (hz_s, hz_b), (pre_s, pre_b), (nf_s, _), (bad_s, bad_b) = (
            responses
        )
        assert plan_s == 200
        assert plan_b["cells"][0]["source"] == "exact"
        assert plan_b["query_key"] == query_key(
            request.resolve(), planner.calibration
        )
        assert (hz_s, hz_b) == (200, {"status": "ok", "cells_indexed": 1})
        assert pre_s == 200 and pre_b == {f"{MODEL}/{CLUSTER}": {BF: [8]}}
        assert nf_s == 404
        assert bad_s == 400 and "error" in bad_b

    def test_mistyped_requests_map_to_400(self, tmp_path):
        raws = []
        for field, value in MISTYPED_FIELDS:
            data = request_to_json(_request())
            data[field] = value
            body = json.dumps(data).encode()
            raws.append(
                b"POST /plan HTTP/1.1\r\nHost: t\r\nContent-Length: "
                + str(len(body)).encode()
                + b"\r\n\r\n"
                + body
            )
        with Planner(tmp_path) as planner:
            responses = self._roundtrip(planner, raws)
            assert len(planner.store) == 0
        for (field, _), (status, payload) in zip(MISTYPED_FIELDS, responses):
            assert status == 400
            assert field in payload["error"]

    def test_unparseable_bodies_map_to_400(self, tmp_path):
        # Neither body used to get a response: the parser raised
        # RecursionError and OverflowError, which no handler caught.
        data = request_to_json(_request())
        data["memory_headroom"] = 10**400
        bodies = [b"[" * 200_000, json.dumps(data).encode()]
        raws = [
            b"POST /plan HTTP/1.1\r\nHost: t\r\nContent-Length: "
            + str(len(body)).encode()
            + b"\r\n\r\n"
            + body
            for body in bodies
        ]
        with Planner(tmp_path) as planner:
            (deep_s, deep_b), (huge_s, huge_b) = self._roundtrip(planner, raws)
            assert len(planner.store) == 0
        assert deep_s == 400 and "nested too deeply" in deep_b["error"]
        assert huge_s == 400
        assert "'memory_headroom' must be a number in float range" in huge_b["error"]

    def test_unknown_model_maps_to_400(self, tmp_path):
        with Planner(tmp_path) as planner:
            body = json.dumps(
                {"model": "nope", "cluster": CLUSTER, "batch_sizes": [8]}
            ).encode()
            raw = (
                b"POST /plan HTTP/1.1\r\nHost: t\r\nContent-Length: "
                + str(len(body)).encode()
                + b"\r\n\r\n"
                + body
            )
            ((status, payload),) = self._roundtrip(planner, [raw])
        assert status == 400
        assert "unknown model" in payload["error"]

    def test_duplicate_methods_map_to_400(self, tmp_path):
        data = request_to_json(_request())
        data["methods"] = [BF, BF]
        body = json.dumps(data).encode()
        raw = (
            b"POST /plan HTTP/1.1\r\nHost: t\r\nContent-Length: "
            + str(len(body)).encode()
            + b"\r\n\r\n"
            + body
        )
        with Planner(tmp_path) as planner:
            ((status, payload),) = self._roundtrip(planner, [raw])
            assert len(planner.store) == 0
        assert status == 400
        assert "duplicate methods" in payload["error"]


class TestServe:
    def test_a_port_in_use_is_a_usage_error(self, tmp_path):
        # A subprocess with a timeout: a regression fails, it cannot hang
        # serving.  The test holds the port, so no name is resolved.
        new, existing = tmp_path / "new", tmp_path / "existing"
        existing.mkdir()
        src = Path(__file__).resolve().parent.parent / "src"
        for store in (new, existing):
            with socket.socket() as held:
                held.bind(("127.0.0.1", 0))
                held.listen(1)
                port = held.getsockname()[1]
                run = subprocess.run(
                    [
                        sys.executable, "-m", "repro.experiments.runner",
                        "serve", "--store", str(store), "--port", str(port),
                    ],
                    env={**os.environ, "PYTHONPATH": str(src)},
                    capture_output=True,
                    text=True,
                    timeout=60,
                )
            assert run.returncode == 2
            assert "listening" not in run.stdout
            assert "Traceback" not in run.stderr
            errors = [
                line for line in run.stderr.splitlines() if "error:" in line
            ]
            assert len(errors) == 1
            assert f"cannot listen on 127.0.0.1:{port}" in errors[0]
        # serve binds before it touches the store: a new one is not
        # created and an existing one is not written to.
        assert not new.exists()
        assert list(existing.iterdir()) == []
