"""Stdlib-only asyncio HTTP server for the explanation service.

``python -m repro serve`` starts one of these.  The event loop only
parses HTTP and JSON; every explanation computation runs on a bounded
:class:`~concurrent.futures.ThreadPoolExecutor` behind
``asyncio.wait_for`` so slow builds cannot starve the accept loop and
every request has a deadline.

Endpoints (JSON in, JSON out, one request per connection):

* ``GET  /v1/health`` — liveness, registered datasets, backend availability;
* ``GET  /v1/stats``  — request/cache/compute counters;
* ``GET  /v1/metrics`` — Prometheus text exposition (request latency
  histograms, cache/coalescer counters, pipeline phase histograms);
* ``POST /v1/explain`` — build (or fetch) the table *M*, return metadata
  plus top-K under both degrees;
* ``POST /v1/topk``   — ranked explanations for one degree/strategy;
* ``POST /v1/analyze`` — the static plan certificate (certified
  convergence bound, per-aggregate additivity verdicts, lint
  diagnostics) with no table build;
* ``POST /v1/mutate`` — batch inserts/deletes against a registered
  dataset; under ``refresh="incremental"`` live explanation tables are
  patched in place and re-cached under the successor fingerprint.

Per-request serving metadata (cache hit/miss/coalesced, degradation
warnings) travels in ``X-Repro-Cache`` / ``X-Repro-Warning`` response
headers, keeping bodies bit-identical across identical requests.  All
failures — malformed JSON, bad predicates, unknown datasets, timeouts
— are structured JSON errors, never tracebacks.

:class:`BackgroundServer` runs the whole thing on a daemon thread for
tests, benchmarks, and notebooks.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Awaitable, Callable, Dict, Optional, Tuple, Union

from .engine import ExplanationService, ServiceResult
from .errors import (
    BadRequestError,
    NotFoundError,
    PayloadTooLargeError,
    RequestTimeoutError,
    ServiceError,
)
from .protocol import MutateRequest, ServiceRequest

_MAX_HEADER_BYTES = 16 * 1024
_IO_TIMEOUT = 30.0  # reading the request / draining the response

#: JSON payloads are dicts; ``/v1/metrics`` returns pre-rendered text.
Payload = Union[dict, str]
Handler = Callable[
    [Optional[dict]], Awaitable[Tuple[int, Payload, Dict[str, str]]]
]


class ExplanationServer:
    """One asyncio HTTP server wrapping an :class:`ExplanationService`."""

    def __init__(
        self,
        service: Optional[ExplanationService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        request_timeout: float = 30.0,
        max_request_bytes: int = 1024 * 1024,
        max_workers: int = 8,
    ) -> None:
        self.service = service if service is not None else ExplanationService()
        self.requested_host = host
        self.requested_port = port
        self.request_timeout = request_timeout
        self.max_request_bytes = max_request_bytes
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self.host = host
        self.port = port

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket (resolves port 0 to a real port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.requested_host, self.requested_port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Close the listening socket and release the worker pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=False)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _count(self, kind: str) -> None:
        self.service.metrics.counter(
            "repro_requests_total",
            labels={"kind": kind},
            help="Service requests events by kind.",
        ).inc()

    # -- connection handling ----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, body = await asyncio.wait_for(
                    self._read_request(reader), timeout=_IO_TIMEOUT
                )
            except ServiceError as exc:
                await self._respond_error(writer, exc)
                return
            except (
                asyncio.TimeoutError,
                asyncio.IncompleteReadError,
                ConnectionError,
                ValueError,
            ):
                await self._respond_error(
                    writer, BadRequestError("malformed HTTP request")
                )
                return
            status, payload, headers = await self._dispatch(method, path, body)
            await self._respond(writer, status, payload, headers)
        except ConnectionError:  # client went away mid-response
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Optional[bytes]]:
        request_line = await reader.readline()
        if not request_line:
            raise ConnectionError("empty request")
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise BadRequestError("malformed request line")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        header_bytes = 0
        while True:
            line = await reader.readline()
            header_bytes += len(line)
            if header_bytes > _MAX_HEADER_BYTES:
                raise PayloadTooLargeError("request headers too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body: Optional[bytes] = None
        length_text = headers.get("content-length")
        if length_text is not None:
            try:
                length = int(length_text)
            except ValueError:
                raise BadRequestError("bad Content-Length header") from None
            if length < 0:
                raise BadRequestError("bad Content-Length header")
            if length > self.max_request_bytes:
                raise PayloadTooLargeError(
                    f"request body of {length} bytes exceeds the "
                    f"{self.max_request_bytes}-byte limit"
                )
            body = await reader.readexactly(length)
        path = target.split("?", 1)[0]
        return method.upper(), path, body

    # -- routing ------------------------------------------------------------

    async def _dispatch(
        self, method: str, path: str, body: Optional[bytes]
    ) -> Tuple[int, Payload, Dict[str, str]]:
        routes: Dict[Tuple[str, str], Handler] = {
            ("GET", "/v1/health"): self._handle_health,
            ("GET", "/v1/stats"): self._handle_stats,
            ("GET", "/v1/metrics"): self._handle_metrics,
            ("POST", "/v1/explain"): self._handle_explain,
            ("POST", "/v1/topk"): self._handle_topk,
            ("POST", "/v1/analyze"): self._handle_analyze,
            ("POST", "/v1/mutate"): self._handle_mutate,
        }
        handler = routes.get((method, path))
        if handler is None:
            known_paths = {p for _, p in routes}
            if path in known_paths:
                exc: ServiceError = BadRequestError(
                    f"method {method} not allowed on {path}",
                    kind="method_not_allowed",
                )
                exc.status = 405
            else:
                exc = NotFoundError(
                    f"no such endpoint: {path}", kind="unknown_endpoint"
                )
            self._count("errors")
            return exc.status, _error_payload(exc), {}
        data: Optional[dict] = None
        if method == "POST":
            if body is None:
                body = b""
            try:
                data = json.loads(body.decode("utf-8")) if body else {}
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                self._count("errors")
                err = BadRequestError(
                    f"request body is not valid JSON: {exc}", kind="bad_json"
                )
                return err.status, _error_payload(err), {}
        latency = self.service.metrics.histogram(
            "repro_request_seconds",
            labels={"endpoint": path},
            help="End-to-end request handling latency by endpoint.",
        )
        start = time.perf_counter()
        try:
            return await handler(data)
        except ServiceError as exc:
            self._count("errors")
            if isinstance(exc, RequestTimeoutError):
                self._count("timeouts")
            return exc.status, _error_payload(exc), {}
        except Exception as exc:  # noqa: BLE001 - last-resort containment
            self._count("errors")
            print(
                f"repro.service: internal error handling {path}: "
                f"{type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
            err = ServiceError("internal server error")
            return err.status, _error_payload(err), {}
        finally:
            latency.observe(time.perf_counter() - start)

    # -- handlers -------------------------------------------------------------

    async def _handle_health(self, _body) -> Tuple[int, dict, Dict[str, str]]:
        self._count("health")
        return 200, self.service.health_payload(), {}

    async def _handle_stats(self, _body) -> Tuple[int, dict, Dict[str, str]]:
        self._count("stats")
        return 200, self.service.stats_payload(), {}

    async def _handle_metrics(
        self, _body
    ) -> Tuple[int, str, Dict[str, str]]:
        self._count("metrics")
        return (
            200,
            self.service.metrics_text(),
            {"Content-Type": "text/plain; version=0.0.4; charset=utf-8"},
        )

    async def _handle_explain(self, body) -> Tuple[int, dict, Dict[str, str]]:
        self._count("explain")
        request = ServiceRequest.from_dict(body)
        result = await self._run_service_call(
            lambda: self.service.explain(request), request
        )
        return 200, result.payload, _result_headers(result)

    async def _handle_topk(self, body) -> Tuple[int, dict, Dict[str, str]]:
        self._count("topk")
        request = ServiceRequest.from_dict(body)
        result = await self._run_service_call(
            lambda: self.service.topk(request), request
        )
        return 200, result.payload, _result_headers(result)

    async def _handle_analyze(self, body) -> Tuple[int, dict, Dict[str, str]]:
        self._count("analyze")
        request = ServiceRequest.from_dict(body)
        result = await self._run_service_call(
            lambda: self.service.analyze(request), request
        )
        return 200, result.payload, _result_headers(result)

    async def _handle_mutate(self, body) -> Tuple[int, dict, Dict[str, str]]:
        self._count("mutate")
        request = MutateRequest.from_dict(body)
        result = await self._run_service_call(
            lambda: self.service.mutate(request), None
        )
        return 200, result.payload, _result_headers(result)

    async def _run_service_call(
        self, fn: Callable[[], ServiceResult], request: Optional[ServiceRequest]
    ) -> ServiceResult:
        timeout = self.request_timeout
        if request is not None and request.timeout_s is not None:
            timeout = min(timeout, request.timeout_s)
        loop = asyncio.get_running_loop()
        try:
            return await asyncio.wait_for(
                loop.run_in_executor(self._executor, fn), timeout
            )
        except asyncio.TimeoutError:
            raise RequestTimeoutError(
                f"request did not complete within {timeout:g}s"
            ) from None

    # -- response writing --------------------------------------------------------

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Payload,
        headers: Dict[str, str],
    ) -> None:
        headers = dict(headers)
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = headers.pop(
                "Content-Type", "text/plain; charset=utf-8"
            )
        else:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            content_type = "application/json"
        reason = _REASONS.get(status, "OK")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in headers.items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await asyncio.wait_for(writer.drain(), timeout=_IO_TIMEOUT)

    async def _respond_error(
        self, writer: asyncio.StreamWriter, exc: ServiceError
    ) -> None:
        self._count("errors")
        try:
            await self._respond(writer, exc.status, _error_payload(exc), {})
        except (ConnectionError, asyncio.TimeoutError):
            pass


def _error_payload(exc: ServiceError) -> dict:
    return {"error": {"type": exc.kind, "message": str(exc)}}


def _result_headers(result: ServiceResult) -> Dict[str, str]:
    headers = {"X-Repro-Cache": result.cache_status}
    if result.warnings:
        headers["X-Repro-Warning"] = " | ".join(
            w.replace("\n", " ") for w in result.warnings
        )
    return headers


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}


class BackgroundServer:
    """Run an :class:`ExplanationServer` on a daemon thread.

    The context-manager form is what tests, benchmarks, and notebooks
    want::

        with BackgroundServer(service) as handle:
            client = handle.client()
            client.topk(dataset="natality")

    The event loop lives entirely on the background thread; ``stop()``
    (or context exit) shuts the server down and joins the thread.
    """

    def __init__(
        self,
        service: Optional[ExplanationService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        **server_kwargs,
    ) -> None:
        self.server = ExplanationServer(
            service, host=host, port=port, **server_kwargs
        )
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def service(self) -> ExplanationService:
        return self.server.service

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        return self.server.url

    def client(self, **kwargs):
        """A :class:`~repro.service.client.ServiceClient` for this server."""
        from .client import ServiceClient

        return ServiceClient(self.host, self.port, **kwargs)

    def start(self, timeout: float = 30.0) -> "BackgroundServer":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise ServiceError("background server did not start in time")
        if self._startup_error is not None:
            raise ServiceError(
                f"background server failed to start: {self._startup_error}"
            )
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            try:
                loop.run_until_complete(self.server.start())
            except BaseException as exc:  # surface bind errors to start()
                self._startup_error = exc
                return
            finally:
                self._ready.set()
            loop.run_forever()
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.run_until_complete(self.server.stop())
        finally:
            loop.close()

    def stop(self, timeout: float = 30.0) -> None:
        if self._thread is None:
            return
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)
        self._thread = None
        self._loop = None
        self._ready.clear()

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
