#!/usr/bin/env python3
"""A global meeting: participants on different continents, churn, speakers.

Exercises the media plane's multi-node topology (the paper's
"interconnected accessing nodes"), mid-meeting joins/leaves, and
active-speaker priority, all under GSO orchestration.  Run it with::

    python examples/global_meeting.py
"""

from repro.conference import ClientSpec, MeetingSpec
from repro.conference.runner import MeetingRunner


def main():
    spec = MeetingSpec(
        clients=[
            ClientSpec("ava", 4000, 6000, region="america"),
            ClientSpec("ben", 3000, 4000, region="america"),
            ClientSpec("chen", 2500, 3000, region="asia"),
            ClientSpec("dara", 1200, 1500, region="asia"),
            # Emil dials in late from a hotel connection, then drops off.
            ClientSpec(
                "emil",
                900,
                1200,
                region="europe",
                join_at_s=15.0,
                leave_at_s=45.0,
            ),
        ],
        mode="gso",
        duration_s=60.0,
        warmup_s=20.0,
        inter_node_ms=70.0,
        speaker_schedule=[(2.0, "ava"), (30.0, "chen")],
    )
    runner = MeetingRunner(spec)
    report = runner.run()

    print("accessing nodes:", ", ".join(sorted(runner.nodes)))
    print(
        f"meeting: framerate={report.mean_framerate():.1f}fps  "
        f"video stall={report.mean_video_stall():.1%}  "
        f"voice stall={report.mean_voice_stall():.1%}"
    )
    print("\nper-view outcomes (measured after warmup):")
    for view in report.views:
        sub_region = next(
            c.region for c in spec.clients if c.client_id == view.subscriber
        )
        pub_region = next(
            c.region for c in spec.clients if c.client_id == view.publisher
        )
        hop = "local" if sub_region == pub_region else "cross-region"
        print(
            f"  {view.subscriber:5s} <- {view.publisher:5s} ({hop:12s}): "
            f"{view.framerate:5.1f}fps  stall={view.stall_rate:5.1%}  "
            f"{view.playback.rendered_kbps:6.0f}kbps @ {view.top_resolution}"
        )
    print(
        f"\ncontroller: {len(runner.plane.decisions)} solves, "
        f"{runner.plane.backend.guards.upgrades_suppressed} upgrades damped, "
        f"{runner.plane.backend.guards.downgrades} failure downgrades"
    )
    print("final roster:", ", ".join(runner.conference.participants()))


if __name__ == "__main__":
    main()
