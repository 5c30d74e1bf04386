"""The five workloads, in the order the suite runs them."""

from . import fleet_sharded, fuzz_campaign, paper_mix, poll_heavy, serve_queries

WORKLOADS = {
    module.NAME: module
    for module in (
        paper_mix, fleet_sharded, poll_heavy, serve_queries, fuzz_campaign,
    )
}
