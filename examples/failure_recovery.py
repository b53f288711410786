#!/usr/bin/env python3
"""Design for failure (Sec. 7): the meeting survives broken components.

Two injected faults, one meeting each:

1. **Client stream failure** — a publisher's 720p hardware encoder path
   dies (packets never reach the wire) while its lower layers still flow.
   The control plane's liveness watchdog detects the configured-but-silent
   stream and re-plans subscribers onto live streams.
2. **Controller crash** — the GSO controller instance is killed
   mid-meeting and a fresh (stateless) one takes over the meeting's
   ingress plane, rebuilding its picture from the conference node.

Run it with::

    python examples/failure_recovery.py
"""

from repro.conference import ClientSpec, MeetingSpec
from repro.conference.runner import MeetingRunner
from repro.control.gso_controller import ConferenceBackend
from repro.core.types import Resolution


def broken_encoder_demo():
    print("=== fault 1: a publisher's 720p encoder silently dies ===")
    spec = MeetingSpec(
        clients=[
            ClientSpec("presenter", 3000, 3000),
            ClientSpec("viewer", 3000, 3000, publishes=False),
        ],
        subscriptions=[("viewer", "presenter", Resolution.P720)],
        mode="gso",
        duration_s=30.0,
        warmup_s=15.0,
    )
    runner = MeetingRunner(spec)
    # Fault injection: 720p frames are encoded but never packetized (as if
    # the hardware encoder wedged); lower resolutions still flow.
    runner.clients["presenter"]._video_ssrcs.pop(Resolution.P720)
    report = runner.run()
    view = report.view("viewer", "presenter")
    print(
        f"  downgrades applied by the controller: "
        f"{runner.plane.backend.guards.downgrades}"
    )
    final = runner.plane.backend.last_solution.policies.get("presenter", {})
    print(
        "  final plan for the presenter:",
        {str(res): e.bitrate_kbps for res, e in final.items()},
    )
    print(
        f"  viewer experience after recovery: {view.framerate:.1f} fps, "
        f"stall {view.stall_rate:.1%}, {view.playback.rendered_kbps:.0f} kbps "
        f"@ {view.top_resolution}"
    )


def controller_crash_demo():
    print("\n=== fault 2: the GSO controller crashes mid-meeting ===")
    spec = MeetingSpec(
        clients=[
            ClientSpec("a", 3000, 3000),
            ClientSpec("b", 3000, 1200),
        ],
        mode="gso",
        duration_s=30.0,
        warmup_s=15.0,
    )
    runner = MeetingRunner(spec)
    runner.sim.run_until(10.0)
    old_solves = len(runner.plane.decisions)
    print(f"  controller crashed at t=10s after {old_solves} solves")
    runner.plane.backend = ConferenceBackend(
        runner.sim, runner.conference, runner.executor
    )
    report = runner.run()
    print(
        f"  replacement controller performed "
        f"{len(runner.plane.decisions) - old_solves} solves"
    )
    print(
        f"  meeting after recovery: {report.mean_framerate():.1f} fps, "
        f"video stall {report.mean_video_stall():.1%}, "
        f"voice stall {report.mean_voice_stall():.1%}"
    )


if __name__ == "__main__":
    broken_encoder_demo()
    controller_crash_demo()
