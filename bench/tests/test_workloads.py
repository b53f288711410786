import os
import subprocess
import sys
from dataclasses import replace

import workloads
from conftest import BENCH


def test_same_seed_same_inputs_other_seed_other_inputs(tiny):
    a, b = workloads.generate(tiny, 3), workloads.generate(tiny, 3)
    assert a.digest == b.digest
    assert [e.seq for e in a.stream] == list(range(len(a.stream)))
    assert workloads.generate(tiny, 4).digest != a.digest


def test_the_fleet_is_fixed_and_the_seed_draws_the_trace(tiny):
    def fleet(seed):
        world = workloads.generate(tiny, seed).world
        return {
            (m, c): (s.uplink_kbps, s.downlink_kbps, s.publishes)
            for m in world.meeting_ids
            for c, s in world.meeting(m).clients.items()
        }

    assert fleet(1) == fleet(2)
    assert workloads.generate(tiny, 1).stream != workloads.generate(tiny, 2).stream


def test_obs_workload_replays_the_base_workloads_inputs():
    shrink = dict(meetings=5, webinars=((1, 2, 5),), duration_s=3.0)
    base = replace(workloads.spec_by_name("fleet_mix"), **shrink)
    obs = replace(workloads.spec_by_name("fleet_mix_obs"), **shrink)
    assert obs.obs and not base.obs
    assert workloads.generate(base, 1).digest == workloads.generate(obs, 1).digest


def test_inputs_digest_is_stable_across_hash_seeds():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import workloads; from dataclasses import replace\n"
        "spec = replace(workloads.spec_by_name('fleet_mix'), meetings=6, webinars=((1, 2, 5),), duration_s=3.0)\n"
        "print(workloads.generate(spec, 1).digest)"
    )
    digests = set()
    for hash_seed in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", code, str(BENCH), str(BENCH.parent / "src")],
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            capture_output=True, text=True, check=True, timeout=60,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_world_churn_rules(tiny):
    world = workloads.generate(tiny, 1).world
    webinar = "w00"
    viewers = lambda: [c for c, s in world.meeting(webinar).clients.items() if not s.publishes]
    joined = world.add_client(webinar)
    assert joined in viewers()
    while world.remove_client(webinar):
        pass
    assert len(viewers()) == 1  # a webinar keeps a viewer
    mesh = world.meeting_ids[0]
    while world.remove_client(mesh):
        pass
    assert len(world.meeting(mesh).clients) == 2
    assert len(world.current_problem(mesh).subscriptions) == 2
