"""Byte-identity: a sharded topology delivers exactly what one process does.

This is the cluster layer's acceptance bar.  Both runs use burst
sources (deterministic payloads, pure functions of ``(app, seq,
size)``) and order-independent SHA-256 digests at the sinks, so the
assertion ``cluster digest == single-process digest`` holds iff every
application byte survived the trip across process boundaries.
"""

import asyncio

from repro.cluster.scenarios import (
    BURST_CONTROL,
    build_local,
    burst_control_message,
    butterfly_specs,
    chain_specs,
    wait_until,
)

from tests.cluster.helpers import poll_info, start_fleet, stop_fleet, wait_all_alive


def run(coro):
    return asyncio.run(coro)


async def local_chain_digest(length: int, app: int, count: int, size: int) -> str:
    """The single-process VirtualHost baseline digest for a chain burst."""
    host = await build_local(chain_specs(length))
    source = host.engine("n0").algorithm
    sink = host.engine(f"n{length - 1}").algorithm
    source.on_control(burst_control_message(app, count, size))
    ok = await wait_until(lambda: sink.received >= count, timeout=30.0)
    assert ok, f"baseline sink got {sink.received}/{count}"
    digest = sink.digest(app)
    await host.stop()
    return digest


async def local_butterfly_digests(app: int, count: int, size: int) -> dict[str, str]:
    """Baseline digests at both butterfly receivers (decoded originals)."""
    host = await build_local(butterfly_specs())
    source = host.engine("A").algorithm
    sinks = {name: host.engine(name).algorithm for name in ("F", "G")}
    generations = count // 2  # the coded source packs k=2 originals per generation
    source.on_control(burst_control_message(app, count, size))
    ok = await wait_until(
        lambda: all(s.decoded_generations >= generations for s in sinks.values()),
        timeout=30.0,
    )
    assert ok, {name: s.decoded_generations for name, s in sinks.items()}
    digests = {name: s.digest() for name, s in sinks.items()}
    await host.stop()
    return digests


class TestChainIdentity:
    def test_64_nodes_on_4_workers_match_one_process(self):
        app, count, size, length = 7, 40, 512, 64

        async def cluster_digest() -> str:
            observer, controller = await start_fleet(workers=4)
            placed = await controller.deploy(chain_specs(length))
            # 64 nodes sharded 16-per-worker by round-robin
            per_worker = {
                name: len(state.placed)
                for name, state in controller.workers.items()
            }
            assert per_worker == {"w0": 16, "w1": 16, "w2": 16, "w3": 16}
            await wait_all_alive(observer, placed, timeout=60.0)

            controller.send_control(
                "n0", BURST_CONTROL, param1=count, param2=size, app=app
            )
            info = await poll_info(
                controller, f"n{length - 1}",
                lambda i: i.get("received", 0) >= count, timeout=60.0,
            )
            digest = info["digests"][str(app)]
            # Round-robin placement makes every chain hop cross-worker, so
            # this digest really did travel the shared-memory rings (the
            # fleet default), not TCP.
            mid = await controller.node_info("n1")
            assert set(mid["transports"]) == {"shm"}, mid["transports"]
            await stop_fleet(observer, controller)
            return digest

        assert run(cluster_digest()) == run(
            local_chain_digest(length, app, count, size)
        )


class TestButterflyIdentity:
    def test_coding_butterfly_on_4_workers_matches_one_process(self):
        app, count, size = 9, 20, 256
        generations = count // 2

        async def cluster_digests() -> dict[str, str]:
            observer, controller = await start_fleet(workers=4)
            placed = await controller.deploy(butterfly_specs())
            # the butterfly genuinely crosses processes
            assert len({p.worker for p in placed.values()}) > 1
            await wait_all_alive(observer, placed)

            controller.send_control(
                "A", BURST_CONTROL, param1=count, param2=size, app=app
            )
            digests = {}
            for name in ("F", "G"):
                info = await poll_info(
                    controller, name,
                    lambda i: i.get("decoded", 0) >= generations, timeout=60.0,
                )
                digests[name] = info["digest"]
            await stop_fleet(observer, controller)
            return digests

        cluster = run(cluster_digests())
        baseline = run(local_butterfly_digests(app, count, size))
        assert cluster == baseline
        assert cluster["F"]  # non-trivial digests, not two empty folds
