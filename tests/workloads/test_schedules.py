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
from repro.workloads import SCENARIO_BUILDERS, out_of_loop_deadlock_scenario

DIGESTS = {
    "contention-masked-storm-1": "d121c06e13186db4ae0f527c1449e23f58dd464da44c1335119e488da9a006b3",
    "contention-masked-storm-2": "618b26b1e98050ae64d7702f2dc4537506455b82a294cbf5a140b75717b24804",
    "contention-masked-storm-3": "5e3222f878b1cb57579999f6b4acb98d97b74573945e7d07a62135db08ed205d",
    "fleet-incast-k16-1": "a6e7c4e62c611dd94bc81c2f2ba2d0a7bfea58088c8901816cf6628d5b7aa3ba",
    "fleet-incast-k8-1": "9c671da1cd961f302b86bfc4da10fe959f87e8fef3b21886fcb642133fe78df4",
    "fleet-incast-k8-2": "269494c6dd206615e3c546cfca6f368101a396d469d12399ff40faa5e77d0c76",
    "fleet-incast-k8-3": "8cb530118840bc7c23f90916ca291b79c81ba24f037abe3f9b195fe7e5f51bb7",
    "in-loop-deadlock-1": "65b359572ed3374ba6743e515ccfca0ab6b0b29a488ec533b4916509d3a523f3",
    "in-loop-deadlock-2": "a7632928619f014384a352e8f5f6c759ad2fb4ab8f355577070298f707eaa59f",
    "in-loop-deadlock-3": "2bf612cf6f7bf55d7d6957911bf019cce98264159bee823fe0baa06aafea7164",
    "incast-backpressure-1": "ce66ae91e4393a2470c547e327588b02a4009add4a110fbc3e8b8007a80a0d85",
    "incast-backpressure-2": "d3c7d45f827b36e619cabcd098b9dc94cd9f286f2e4405766d513405af60b16e",
    "incast-backpressure-3": "eb5cd672be668afcc8b4a74736b48d400e6f0a011e6b8556412553cb026c623e",
    "lordma-attack-1": "037be4bdf4ea62f89b8194aa64d72816e69f156a351bf91e6d12ce1e42f82da7",
    "lordma-attack-2": "1b45f9f380b071d9e9a92bbf8c4701490c21f2216c8ea477afc83e40832cec99",
    "lordma-attack-3": "0da6a9c1ea89cefafd9f00aad679d045046c170db1e2fea8eb5e7ec6070bf1dd",
    "normal-contention-1": "60f71a93c46941a394484114340abd8209140236ba5567e897a3537f6b160539",
    "normal-contention-2": "37216903cf90237376622e075cc2a8e016359175e7ac82eaff094aad326f2706",
    "normal-contention-3": "78937677a6e17d0712a43a85e216d776568fe2fe20e83e7b347d25af4eac27fb",
    "out-of-loop-deadlock-1": "4f09d666f04f0020f12141ce09acd35d16b2f0182abfbc95b400843e0a0457e9",
    "out-of-loop-deadlock-2": "25babe95bf93b6a55cd30496b8f6473cb4e89c959ce7e2e02abd8fb09376feb1",
    "out-of-loop-deadlock-3": "9a8dee408bfc0c080772808dd29654dacd0b8f95da2dbb202c2313836eb69ad8",
    "out-of-loop-deadlock-cont-1": "1cf145d4d27b91104ab1548973b45e526ba37ac6b3b6865b413d87e78af4e937",
    "out-of-loop-deadlock-cont-2": "b463062d5eeafea08c3fb114ae98aa8560c92f59cedfcbb8aa02b6b28eb6dfea",
    "out-of-loop-deadlock-cont-3": "ee435b16f5e54d2ccf87866e0375021ee218a9534ed65cbfbc4071bf1a0c85cd",
    "pfc-storm-1": "51dc56d6bc1b55b48a348468e4365a6e2c5faa85bb9b43e738fee72e8ff0affe",
    "pfc-storm-2": "aea2fba4d6f7c2ed5869d56325be354fd2a48403b10431917abfb3f945b913c7",
    "pfc-storm-3": "abb0b055b2be6a6e992bf813f62e176c9ad52a24a43f396c42f0e7b15f3773ce",
    "random-genome-0": "08c2d7739c9572f331146c39dab712943c7e1cde27a74b9f193bed1f30c15cac",
    "random-genome-1": "fd5bf89abec4245a663a4f71adc39bb2f9f4e0c800c4506c3a5f8a46ef0563fa",
    "random-genome-10": "e9200485bba205fecff3fc49637801c6e1afbb9b15a9879fc212109eba18dfd3",
    "random-genome-11": "bd9b18f04430f9265744540e5661b8f8e12615eccc4151708ee074d8ac09d6b9",
    "random-genome-12": "4e8d27b60fb6dab94cc9a22ea163ac36ee31a9fcffea6cf573588e8c5745c430",
    "random-genome-13": "27d23759be375284632ec66d0be16c8a31127fc28713111d74d177c46e9af3da",
    "random-genome-14": "f0d8d3929b87307fec43a7019115314b7f018f7f25f97d71e72754f329e50be4",
    "random-genome-15": "c66c16297c96c0b746ca2362c30d94470c89df34ce8e7309d67da4a3c843d6c0",
    "random-genome-16": "d6f548bbebddfb0a3bfe09bfbab95d696b419d0e986ad57ad567037cc5323e37",
    "random-genome-17": "c19e0c54531d49c5a23572388156d4068bdaa20507150e4b81b6a61525876e8f",
    "random-genome-18": "f32adf7535dbdeb12317cde09583751946803ece033a32f0d11cc114bde6731d",
    "random-genome-19": "b4084d61edbbf809c34e2a61429bed232a43f96204c6bc9652178e99ef9fd11e",
    "random-genome-2": "50c8d92e2d621966edb302153ec36e18e19efc02486565f41cd6559f55830a55",
    "random-genome-3": "8aedb5aab0b147c2d8bb9274c5d519df9f7d20bf41076bd650f75141bec3e966",
    "random-genome-4": "6ee6242813507475554bafb93dc797602b559b95a9441fcf5b6ff3bdfd0deac6",
    "random-genome-5": "ee1ab76c43db30b8727885062d74d825dc54d05d54117eb146f739b1d97ab2da",
    "random-genome-6": "19886a63478b008744b33fcdd12a5a3b7866a95af3ec0e6300272ae9fc2415b9",
    "random-genome-7": "a04d5d02ff01178e252e15adf05bac1e4a825241448266fa48c4717c201cd21c",
    "random-genome-8": "7f9514bfbcd7f7fc40ae0329946be383f7e7d59557dbcde3cb76fa7886d51dc8",
    "random-genome-9": "12121df7712bae284b6144eccbf0ada9c8106005dc193735fd73da80e3dd9410",
    "seed-genome-0": "c695496747f28fdbba0807e7fc7caabd9405f26f7a55fc19b79cf2a919ee2ef8",
    "seed-genome-1": "89e2ca58d982391e5aabe6bcb157bc187cee136265cbc1c83827b9534420dcfb",
    "seed-genome-2": "4e2d6ba034cff155d2c507572318d33edaf10289c84d27e066eae89f16bf2f4e",
    "seed-genome-3": "114b34e115e680dc6e784aecd262f90a1af08ca0280bd2889740f16f4bf9365f",
    "seed-genome-4": "59624f1d59cb898f6c68e76c2d79b5a65053f16a77b8d482a9ce41b562f07655",
    "seed-genome-5": "c80487820f2a455b2d16988c4546090a6025595b8d6b59543f881e3251205549",
    "seed-genome-6": "40695b92bc79e1a0558709c3f1902569067e36381149a082954a95ec3037e120",
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
        net.config.pfc,
        net.config.ecn,
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
