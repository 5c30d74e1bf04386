"""Every traffic schedule the builders and the fuzzer's genomes lay down.

Nothing is simulated: each case builds its scenario and hashes what was
scheduled before the first event runs —

- every started flow, in start order: key, endpoints, size, start time
  and rate cap;
- the victims, the ground truth, the name, description and duration;
- the PFC/ECN thresholds;
- ``Simulator.counters()`` and the time of every queued event, which
  catch a PFC storm that is missing, extra or moved.

A change to how traffic is laid down that means to be neutral (a
refactor of ``repro.workloads.anomalies`` or ``ScenarioGenome.build``)
passes this file with no literal edited.  The kernel contract
(``tests/sim/test_kernel_contract.py``) pins what the simulator then
does with seven of these schedules at seed 1.
"""

import hashlib
import random

import pytest

from repro.fuzz import random_genome, seed_genomes
from repro.sim.config import ECN_PMAX
from repro.workloads import SCENARIO_BUILDERS, out_of_loop_deadlock_scenario

DIGESTS = {
    "contention-masked-storm-1": "f2f1b4dcdbe7c865e9b6bd9f9772635de360fbcca2ba5d72517c80fc41ca96a8",
    "contention-masked-storm-2": "6909e6c48d9cb01acc7873f5e5e574eb516eda9b8fd8b63ea81d38bbc55cf649",
    "contention-masked-storm-3": "964fdfc4d407ffe5c5d0ef3e31962f0113b5bb20413b94fd953804f2821f111c",
    "fleet-incast-k16-1": "b7f7975d96625a463e5fafad9ae30f7bfab7c71078f59f93a30ce2cc0cd164a7",
    "fleet-incast-k8-1": "6925ad2a41815bf5313f2120d1e7d080661b4230d007ea7961401ae76b6484a3",
    "fleet-incast-k8-2": "e0dbbe06c503392eebd9d340be6c1b5b956f273cd1604c1f8de810b1fbffabaa",
    "fleet-incast-k8-3": "4b726fe86793daca87c84d430e81c838947cc0e7f0f52457ff19ee390d73004d",
    "in-loop-deadlock-1": "e7086644204cfb49e1492de90e804b109b62e9c0d1ad8be5aec0de018537291c",
    "in-loop-deadlock-2": "360bc3fa560aba8dae79a210e5e157670c766f6d102b47138cf4f1ad39761a34",
    "in-loop-deadlock-3": "afe08743fb205826a8a3fc14835f9fee93049112754ee2bf3486802e6ec127da",
    "incast-backpressure-1": "e14856a593df3e5865b3f732636c4052f503a2bd870cb2eb2f27d4e956341383",
    "incast-backpressure-2": "b6ac14e7aa63bb4a187c89d700b03a5cad3bf22f4f89f4fdcfab506c39a795a1",
    "incast-backpressure-3": "8ce65ab463b5f9cd546a7212886791a5c08ef3f626141bad021187b6448b6573",
    "lordma-attack-1": "717a42da821554fa905cf5555f4e60e8b3dab253b311d531c1a939c057bcff59",
    "lordma-attack-2": "4acfe4cd36b1288f0c3cc5e290bcd5b26fe8ee3c798aa77e769034fc8b988a54",
    "lordma-attack-3": "6b554583a89f13d4a69bf8f502f3d167aea998fb881468f4c8a2306c9b8ea015",
    "normal-contention-1": "8abd45209942703ce39263c76c1a0c0ed54b57b9d8d2147cedf8e8b68b0223aa",
    "normal-contention-2": "680977589068b979e5a5c5f67c9931054599f409c3cd52358ff845ce380372e7",
    "normal-contention-3": "9bd6bbe847b5eb7e79e4e330ccacfe5dc683142ed9f704fb4b5b3afda4dd376f",
    "out-of-loop-deadlock-1": "ce3c968bcf18b1f7b622d534196e5333b0724d26cc725ae3bed16e00a91656ae",
    "out-of-loop-deadlock-2": "1a11d4f8c051e317f4b8a3a2c1fd0e5fabb4ed17406fa87d055e8926a0b67959",
    "out-of-loop-deadlock-3": "f5874ed7c756ec73608f24be0e1007b53fe87dfb8e11f8fb6a310f8c6cb3441b",
    "out-of-loop-deadlock-cont-1": "0732211062da09fe2f7194d4fbd3cc8a55e7aba97c5957bb4dae005d061a210e",
    "out-of-loop-deadlock-cont-2": "7664517c696bcb7f7a4b3866c0e76ab03c2526da6037025c611271373f252a84",
    "out-of-loop-deadlock-cont-3": "2806e73ca807738257b5e0cb669150cec4ca7be6ee7e10a70331e035a8653a3b",
    "pfc-storm-1": "8211b56bf6d7095fb6098b300cae571e4919628133abb593158430ddf3aedca1",
    "pfc-storm-2": "2619d20895354b7ad70845ef59ab30db329a04c1fbce78511809d74cfc6c7f28",
    "pfc-storm-3": "92338108ce376fb3b030247058fbcf6dccf67d3fe6b3ea62e66c1aefd3d5e688",
    "random-genome-0": "90b27b37467e74236403d7e0c47f2277d72e662b7c0187acea9da9c54b0bcaf1",
    "random-genome-1": "f16fd0126d84a2fd3d906c004ca141dfce68b862541556f976ca3b21aa2bc0ba",
    "random-genome-10": "155d30839afa842be29fa7a8b25ed8662b323b5c2e707e58c5509b77dab38af9",
    "random-genome-11": "90d39f560df89138f2de54e49ecbe742ab7ae391158ec4c99a9395f8e9b8a3d2",
    "random-genome-12": "ce92bef3791cb3367ece94e9ca5b96b8cddb49ab6c4d7ebfbcf830987a72ef0a",
    "random-genome-13": "8252242c589712b39a263c05a7bb52870c3d4dffb30736ac96af0bbad7f0faf5",
    "random-genome-14": "d9736bf7eb36053c59a698bd725896ef8b28f593ae4b9c952f49c5f2ec70d2dd",
    "random-genome-15": "2c5007d3c3321e10f600afcb00707c79bb10a094138a8a155cc33c4222fc3af5",
    "random-genome-16": "fd97864f34158278185467cccb3102f10c4ac9effbf7b454bdd12a67446e2464",
    "random-genome-17": "a9ebfa95f3bec5d32575c4c463076e827c147bbff483b471e417a4748bccfe35",
    "random-genome-18": "6704106817736fb790debbd3220cf25c7a7d75bcfcc83c4aa3ab5a564e6db53f",
    "random-genome-19": "0d6229243216fddeac7d726564583bc55c85560a1f10a33a74dd5248837838e6",
    "random-genome-2": "012a230f350afa494c9e3feef8f64d60407ec8c4359e27b632419a508db327c1",
    "random-genome-3": "82d52695c16430ee5c8c7712f98a60a4f9f56ae16780772a15ccd286f4153d7f",
    "random-genome-4": "97c9b6df47c40d0c1d56dbb7e31aa956697a210a99e1b0d15fa5128a820ed44a",
    "random-genome-5": "b499c17139b602b27a260767ba46af339771a91d5b5a04eab4d29242b439b585",
    "random-genome-6": "0a5d6ba2f6f34f4f3c04e76fd5b37044e7cf946d6d1a701c008015c5f7754bb4",
    "random-genome-7": "d942557f021b5b28183e3decce2976fa4f6126b797d8a8f950c58d78eca54225",
    "random-genome-8": "6c5163372b9e80ce753ac37ba8a39889ec7e558e5f284fcfe1ab56f49e7c2179",
    "random-genome-9": "01d9e8eca6d840b52c05d1c4608a18f3c370f99ada057fc0658631e4c00ff984",
    "seed-genome-0": "36ae11394f6cc52399a7814e5a6ad97695fffef5761f74b3899e2d8313a609b7",
    "seed-genome-1": "f525196cdefd6357ca77cda5ec646cced5a26da79aefcde5867a42a3fd06288d",
    "seed-genome-2": "d64edec419840243abc512ab840d11a2b74d8800333e081e714ed1d9c7277eda",
    "seed-genome-3": "7dbebfec5e8dfc6f4f7f3e716efcdc441016e44917ca171710bd7abb6da04903",
    "seed-genome-4": "dd56ad3ed403f067ca46d0a586c87348b12f5b1b1844bd3290b144de71d3cf4e",
    "seed-genome-5": "5bb1d824cdea7cf0be0b5efebbbaf93a248158b496ebee9c1f8a59267c53d9da",
    "seed-genome-6": "0d8847f3b3bb6abbd8a02d3a17bdc966bd638ab87d40c1c063622d0cd1586c6f",
}


def _cases():
    for name in sorted(SCENARIO_BUILDERS):
        for seed in (1,) if name == "fleet-incast-k16" else (1, 2, 3):
            yield f"{name}-{seed}", lambda n=name, s=seed: SCENARIO_BUILDERS[n](seed=s)
    for seed in (1, 2, 3):
        yield (
            f"out-of-loop-deadlock-cont-{seed}",
            lambda s=seed: out_of_loop_deadlock_scenario(seed=s, injection=False),
        )
    for i, genome in enumerate(seed_genomes()):
        yield f"seed-genome-{i}", genome.build
    rng = random.Random(7)
    for i in range(20):
        yield f"random-genome-{i}", random_genome(rng).build


CASES = dict(_cases())


def schedule_digest(scenario) -> str:
    net = scenario.network
    sim = net.sim
    pfc, ecn = net.config.pfc, net.config.ecn
    record = (
        [
            (f.key, f.src_host, f.dst_host, f.size, f.start_time, f.max_rate)
            for f in net.flows
        ],
        [f.key for f in scenario.victims],
        scenario.truth,
        scenario.name,
        scenario.description,
        scenario.duration_ns,
        # The thresholds by name and value: a field added to or dropped
        # from ``PfcConfig``/``EcnConfig`` moves no digest.
        (
            ("xoff_bytes", pfc.xoff_bytes),
            ("xon_bytes", pfc.xon_bytes),
            ("kmin_bytes", ecn.kmin_bytes),
            ("kmax_bytes", ecn.kmax_bytes),
            ("ECN_PMAX", ECN_PMAX),
        ),
        sim.counters(),
        # The queue itself has no public view: (time, entries) per slot.
        sorted((t, len(slot)) for t, slot in sim._slots.items()),
    )
    return hashlib.sha256(repr(record).encode()).hexdigest()


def test_every_case_is_pinned():
    assert sorted(CASES) == sorted(DIGESTS)


@pytest.mark.parametrize("case", sorted(CASES))
def test_schedule_is_unchanged(case):
    assert schedule_digest(CASES[case]()) == DIGESTS[case]
