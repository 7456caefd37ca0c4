"""Deputy and gateway ranking, through the oracle on hand-built fields."""

from repro.cluster.geometric import build_clusters
from repro.topology.graph import UnitDiskGraph
from repro.util.geometry import Vec2

RADIUS = 100.0


def clusters(positions, **knobs):
    return build_clusters(
        UnitDiskGraph({nid: Vec2(x, y) for nid, (x, y) in positions.items()}, RADIUS),
        **knobs,
    )


#: One cluster around head 0 on a line; the peer head 10 is out of range.
DEPUTY_FIELD = {0: (0, 0), 1: (90, 0), 2: (10, 0), 3: (50, 0), 10: (160, 0)}

#: Head 0's members 1, 3, 4 reach the peer head 10 (150 away).  By the
#: larger of the two head distances they rank 1 (75), 4 (90), 3 (95);
#: by owner distance alone 4, 1, 3; by NID 1, 3, 4.
GATEWAY_FIELD = {
    0: (0, 0), 1: (75, 0), 2: (10, 0), 3: (95, 0), 4: (60, 0), 10: (150, 0),
}


class TestDeputies:
    def test_ranked_by_distance(self):
        layout = clusters(DEPUTY_FIELD, deputy_count=3)
        assert layout.clusters[0].deputies == (2, 3, 1)

    def test_degree_breaks_distance_ties(self):
        # 1 and 2 sit 10 from the head; 3 is adjacent to 2 but not to 1,
        # so 2 has the higher in-cluster degree and ranks first.
        layout = clusters({0: (0, 0), 1: (10, 0), 2: (-10, 0), 3: (-95, 0)})
        assert layout.clusters[0].deputies == (2, 1)

    def test_nid_final_tiebreak(self):
        layout = clusters({0: (0, 0), 5: (10, 0), 3: (-10, 0)})
        assert layout.clusters[0].deputies == (3, 5)

    def test_select_caps_count(self):
        assert clusters(DEPUTY_FIELD, deputy_count=2).clusters[0].deputies == (2, 3)
        layout = clusters({0: (0, 0), 1: (50, 0)}, deputy_count=5)
        assert layout.clusters[0].deputies == (1,)


class TestGateways:
    def test_candidates_exclude_head(self):
        # Exactly the owner members adjacent to the peer CH: not the
        # head, not member 2 (140 from the peer).
        boundary = clusters(GATEWAY_FIELD, max_backups=3).boundaries[(0, 10)]
        assert sorted(boundary.all_forwarders) == [1, 3, 4]

    def test_ranking_prefers_central_overlap(self):
        boundary = clusters(GATEWAY_FIELD).boundaries[(0, 10)]
        assert boundary.all_forwarders == (1, 4, 3)

    def test_select_boundary_roles(self):
        boundary = clusters(GATEWAY_FIELD, max_backups=1).boundaries[(0, 10)]
        assert boundary.gateway == 1
        assert boundary.backups == (4,)

    def test_select_boundary_none_when_no_candidates(self):
        # The singleton cluster 10 has no member to reach head 0 with.
        layout = clusters(GATEWAY_FIELD)
        assert layout.heads == (0, 10)
        assert list(layout.boundaries) == [(0, 10)]

    def test_zero_backups(self):
        boundary = clusters(GATEWAY_FIELD, max_backups=0).boundaries[(0, 10)]
        assert boundary.gateway == 1
        assert boundary.backups == ()
