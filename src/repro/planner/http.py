"""Minimal stdlib HTTP/JSON front-end for the planner.

``asyncio.start_server`` plus a hand-rolled HTTP/1.1 parser — enough
protocol for a JSON service and nothing more (no keep-alive, no chunked
bodies, no TLS), so the repo stays dependency-free.  Endpoints:

- ``POST /plan`` — a :func:`~repro.planner.protocol.request_from_json`
  body; answers with :func:`~repro.planner.protocol.answer_to_json`.
- ``GET /presets`` — the startup frontier index
  (:meth:`~repro.planner.core.Planner.preset_frontiers`): which cells
  are already exact hits, per committed preset pair.
- ``GET /healthz`` — liveness plus the memo-store size.

Malformed requests get a 400 with ``{"error": ...}``, and so does a
body that ends before its ``Content-Length``; unknown paths get a 404,
and a known path asked with another method a 405 whose ``Allow`` header
names the path's one method.  Connections are one-shot (``Connection:
close``); a client that resets its connection before the answer is
written is let go without an error.  All handler coroutines follow the
same L503 rule as the core: nothing blocking runs on the loop — request
handling only touches the planner's async API and in-memory indexes.
"""

from __future__ import annotations

import asyncio
import json
import socket

from repro.planner.core import Planner
from repro.planner.protocol import (
    answer_to_json,
    request_from_json,
)
from repro.search.service.serialize import canonical_dumps

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "serve",
    "start_planner_server",
]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642

#: Request bodies above this are rejected outright (a plan request is a
#: few hundred bytes; anything larger is a mistake or abuse).
_MAX_BODY_BYTES = 1 << 20

_MAX_HEADER_LINES = 100

#: Each endpoint's one method.
_ENDPOINTS = {"/plan": "POST", "/presets": "GET", "/healthz": "GET"}

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
}


class _BadRequest(ValueError):
    """Maps to a 400 response with the message as the error body."""


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, bytes]:
    """Parse one HTTP/1.1 request: ``(method, path, body)``."""
    request_line = await reader.readline()
    if not request_line:
        raise _BadRequest("empty request")
    try:
        method, target, _version = request_line.decode("ascii").split()
    except ValueError as exc:
        raise _BadRequest(f"malformed request line: {request_line!r}") from exc
    content_length = 0
    for _ in range(_MAX_HEADER_LINES):
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _sep, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError as exc:
                raise _BadRequest(
                    f"bad Content-Length: {value.strip()!r}"
                ) from exc
    else:
        raise _BadRequest("too many header lines")
    if content_length < 0 or content_length > _MAX_BODY_BYTES:
        raise _BadRequest(f"unacceptable Content-Length: {content_length}")
    try:
        body = (
            await reader.readexactly(content_length) if content_length else b""
        )
    except asyncio.IncompleteReadError as exc:
        raise _BadRequest(
            f"body ended after {len(exc.partial)} of {content_length} bytes"
        ) from None
    return method, target.split("?", 1)[0], body


def _response(status: int, payload: dict, *, allow: str | None = None) -> bytes:
    body = canonical_dumps(payload).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, '')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        + (f"Allow: {allow}\r\n" if allow else "")
        + "Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + body


async def _handle(
    planner: Planner,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        try:
            method, path, body = await _read_request(reader)
            allowed = _ENDPOINTS.get(path)
            if allowed is None:
                response = _response(
                    404, {"error": f"no such endpoint: {method} {path}"}
                )
            elif method != allowed:
                response = _response(
                    405,
                    {"error": f"method not allowed: {method} {path}; use {allowed}"},
                    allow=allowed,
                )
            elif path == "/healthz":
                response = _response(
                    200, {"status": "ok", "cells_indexed": len(planner.store)}
                )
            elif path == "/presets":
                response = _response(200, planner.preset_frontiers())
            else:
                try:
                    data = json.loads(body)
                except json.JSONDecodeError as exc:
                    raise _BadRequest(f"body is not JSON: {exc}") from exc
                except RecursionError:
                    raise _BadRequest("body is nested too deeply") from None
                request = request_from_json(data)
                answer = await planner.plan(request)
                response = _response(200, answer_to_json(answer))
        except (_BadRequest, ValueError) as exc:
            # ValueError covers request validation/resolution failures
            # (unknown model/cluster/objective, bad batch sizes).
            response = _response(400, {"error": str(exc)})
        writer.write(response)
        await writer.drain()
    except ConnectionError:
        pass  # the client reset the connection: nobody is left to answer
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass


async def start_planner_server(
    planner: Planner, sock: socket.socket
) -> asyncio.AbstractServer:
    """Serve ``planner`` on the bound socket ``sock``; the caller owns
    the returned server's lifetime.
    """
    # ``_handle`` is looked up in this module on each connection:
    # perfbench's tracer times requests by replacing it.
    return await asyncio.start_server(
        lambda r, w: _handle(planner, r, w), sock=sock
    )


async def serve(planner: Planner, sock: socket.socket) -> None:
    """Serve on the bound socket ``sock`` until cancelled (the CLI's
    foreground mode).

    The caller binds ``sock`` before it builds ``planner``, so an address
    that cannot be bound fails before any memo store is created.
    """
    server = await start_planner_server(planner, sock)
    addr = server.sockets[0].getsockname()
    print(f"planner listening on http://{addr[0]}:{addr[1]}", flush=True)
    async with server:
        await server.serve_forever()
