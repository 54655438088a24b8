import json

import pytest

from productmix import cli
from productmix.core import BidList, is_demanded


def write_auction(tmp_path, data, name="auction.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def worked_file(tmp_path):
    return write_auction(
        tmp_path,
        {
            "goods": 2,
            "M": 100,
            "bidders": [
                {"name": "alice", "bids": [[6, 6, 1], [0, 4, 1]]},
                {
                    "name": "bob",
                    "bids": [[2, 4, 1], [4, 2, 1], [4, 4, -1], [6, 6, 1]],
                },
            ],
            "target": [1, 1],
        },
    )


class TestValidate:
    def test_worked_file_all_valid(self, worked_file, capsys):
        assert cli.main(["validate", worked_file]) == 0
        out = capsys.readouterr().out
        assert "alice: VALID" in out and "bob: VALID" in out

    def test_invalid_bidder(self, tmp_path, capsys):
        path = write_auction(
            tmp_path,
            {
                "goods": 2,
                "bidders": [{"name": "evil", "bids": [[4, 4, -1]]}],
                "target": [0, 0],
            },
        )
        assert cli.main(["validate", path]) == 1
        assert "INVALID witness" in capsys.readouterr().out

    def test_zero_weight_is_parse_error(self, tmp_path, capsys):
        path = write_auction(
            tmp_path,
            {
                "goods": 2,
                "bidders": [{"name": "x", "bids": [[4, 4, 0]]}],
                "target": [0, 0],
            },
        )
        assert cli.main(["validate", path]) == 2

    def test_fractional_values_accepted(self, tmp_path):
        path = write_auction(
            tmp_path,
            {
                "goods": 2,
                "bidders": [{"name": "x", "bids": [["4.5", 2, 1]]}],
                "target": [0, 0],
            },
        )
        assert cli.main(["validate", path]) == 0

    def test_negative_budget_is_usage_error(self, worked_file, capsys):
        assert cli.main(["validate", worked_file, "--budget", "-1"]) == 2
        err = capsys.readouterr().err
        assert "--budget" in err and "non-negative" in err


class TestPrice:
    @pytest.mark.parametrize("method", ["unit", "long-binary", "long-demand"])
    def test_worked_price(self, worked_file, capsys, method):
        assert cli.main(["price", worked_file, "--method", method]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["price"] == [4, 4]

    def test_trace_single_long_step(self, worked_file, capsys):
        assert cli.main(["price", worked_file, "--method", "long-binary", "--trace"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        steps = [json.loads(line) for line in lines[:-1]]
        assert len(steps) == 1
        assert steps[0] == {"price": [0, 0], "direction": [1, 2], "length": 4}

    def test_zero_target_no_bidders(self, tmp_path, capsys):
        path = write_auction(
            tmp_path, {"goods": 2, "bidders": [], "target": [0, 0]}
        )
        assert cli.main(["price", path]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["price"] == [0, 0]

    def test_fractional_bids_rejected(self, tmp_path, capsys):
        path = write_auction(
            tmp_path,
            {
                "goods": 2,
                "bidders": [{"name": "x", "bids": [["4.5", 2, 1]]}],
                "target": [0, 0],
            },
        )
        assert cli.main(["price", path]) == 1


class TestAllocate:
    def test_worked_allocation(self, worked_file, capsys):
        assert cli.main(["allocate", worked_file]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["price"] == [4, 4]
        a = tuple(result["allocation"]["alice"])
        b = tuple(result["allocation"]["bob"])
        assert a in {(1, 0), (0, 1)}
        assert tuple(x + y for x, y in zip(a, b)) == (1, 1)
        assert result["unsold"] == [0, 0]
        alice = BidList.from_rows("alice", [(6, 6, 1), (0, 4, 1)])
        bob = BidList.from_rows("bob", [(2, 4, 1), (4, 2, 1), (4, 4, -1), (6, 6, 1)])
        assert is_demanded(alice, a, (4, 4))
        assert is_demanded(bob, b, (4, 4))

    def test_single_bidder_receives_everything(self, tmp_path, capsys):
        path = write_auction(
            tmp_path,
            {
                "goods": 2,
                "bidders": [
                    {"name": "bob", "bids": [[2, 4, 1], [4, 2, 1], [4, 4, -1], [6, 6, 1]]}
                ],
                "target": [1, 1],
            },
        )
        assert cli.main(["allocate", path]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["allocation"]["bob"] == [1, 1]

    def test_priority_file(self, worked_file, tmp_path, capsys):
        for favourite in ("bob", "alice"):
            pf = tmp_path / f"priority_{favourite}.json"
            pf.write_text(json.dumps([[1, favourite], [2, favourite]]))
            assert cli.main(["allocate", worked_file, "--priority-file", str(pf)]) == 0
            result = json.loads(capsys.readouterr().out)
            assert result["allocation"][favourite] == [1, 0]

    def test_seedless_deterministic(self, worked_file, capsys):
        assert cli.main(["allocate", worked_file, "--seedless-deterministic"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert cli.main(["allocate", worked_file, "--seedless-deterministic"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second

    def test_undersupply_goes_to_auctioneer(self, tmp_path, capsys):
        # a single bid cannot absorb two items; the target still clears
        # because unsold items resolve to the auctioneer's reserve bids
        path = write_auction(
            tmp_path,
            {
                "goods": 1,
                "bidders": [{"name": "only", "bids": [[5, 1]]}],
                "target": [2],
            },
        )
        assert cli.main(["allocate", path]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["price"] == [0]
        assert result["allocation"]["only"] == [1]
        assert result["unsold"] == [1]


class TestGenerate:
    def test_deterministic_output(self, capsys):
        args = ["generate", "-n", "2", "-m", "2", "-q", "4", "--seed", "7"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_round_trip(self, tmp_path, capsys):
        assert cli.main(["generate", "-n", "2", "-m", "2", "-q", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        path = tmp_path / "generated.json"
        path.write_text(out)
        auction = cli.parse_auction(str(path))
        assert auction.n == 2 and len(auction.bidders) == 2
        assert cli.main(["validate", str(path)]) == 0
        capsys.readouterr()

    def test_env_default_scale(self, capsys, monkeypatch):
        monkeypatch.setenv("PRODUCTMIX_M", "20")
        assert cli.main(["generate", "-n", "2", "-m", "1", "-q", "2", "--seed", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["M"] == 20


class TestBench:
    def test_csv_rows(self, capsys):
        args = [
            "bench",
            "--axis",
            "bids",
            "--grid",
            "2:10:2",
            "--repetitions",
            "1",
            "--bidders",
            "2",
            "-M",
            "20",
            "--seed",
            "5",
        ]
        assert cli.main(args) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines[0] == "axis,value,mean_seconds,stddev_seconds,samples"
        assert len(lines) == 6
        assert all(line.startswith("bids,") for line in lines[1:])

    def test_manifest_sidecar(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        args = [
            "bench",
            "--axis",
            "bidders",
            "--grid",
            "1,2",
            "--repetitions",
            "1",
            "--rounds",
            "3",
            "-M",
            "20",
            "--out",
            str(out),
        ]
        assert cli.main(args) == 0
        manifest = json.loads((tmp_path / "bench.csv.manifest.json").read_text())
        assert manifest["seed"] == 0 and manifest["grid"] == [1, 2]
        assert out.read_text().startswith("axis,value,")


class TestRegions:
    def test_marginal_marker_row(self, tmp_path, capsys):
        path = write_auction(
            tmp_path,
            {
                "goods": 2,
                "bidders": [{"name": "alice", "bids": [[6, 6, 1], [0, 4, 1]]}],
                "target": [1, 1],
            },
        )
        assert cli.main(["regions", path, "--grid-step", "0.5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "p1,p2,x1,x2,marginal"
        assert "4,4,,,1" in lines
        assert "1,2,1,1,0" in lines

    def test_dimension_guard(self, tmp_path, capsys):
        path = write_auction(
            tmp_path,
            {
                "goods": 3,
                "bidders": [{"name": "x", "bids": [[1, 1, 1, 1]]}],
                "target": [0, 0, 0],
            },
        )
        assert cli.main(["regions", path]) == 1


class TestParseErrors:
    def test_missing_target(self, tmp_path):
        path = write_auction(tmp_path, {"goods": 2, "bidders": []})
        assert cli.main(["validate", path]) == 2

    def test_float_value_rejected(self, tmp_path):
        path = write_auction(
            tmp_path,
            {
                "goods": 2,
                "bidders": [{"name": "x", "bids": [[4.5, 2, 1]]}],
                "target": [0, 0],
            },
        )
        assert cli.main(["validate", path]) == 2

    def test_two_fraction_digits_rejected(self, tmp_path):
        path = write_auction(
            tmp_path,
            {
                "goods": 2,
                "bidders": [{"name": "x", "bids": [["4.55", 2, 1]]}],
                "target": [0, 0],
            },
        )
        assert cli.main(["validate", path]) == 2

    def test_duplicate_names(self, tmp_path):
        path = write_auction(
            tmp_path,
            {
                "goods": 2,
                "bidders": [
                    {"name": "x", "bids": [[1, 1, 1]]},
                    {"name": "x", "bids": [[2, 2, 1]]},
                ],
                "target": [0, 0],
            },
        )
        assert cli.main(["validate", path]) == 2

    @pytest.mark.parametrize(
        "field, value",
        [("goods", True), ("target", [True, 0]), ("priority", [[True, "alice"]])],
    )
    def test_booleans_are_not_numbers(self, tmp_path, capsys, field, value):
        data = {
            "goods": 2,
            "bidders": [{"name": "alice", "bids": [[6, 6, 1], [0, 4, 1]]}],
            "target": [1, 0],
        }
        data[field] = value
        path = write_auction(tmp_path, data)
        assert cli.main(["allocate", path]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("good", [True, 1.5, "1"])
    def test_priority_file_goods_are_integers(self, worked_file, tmp_path, good):
        pf = tmp_path / "priority.json"
        pf.write_text(json.dumps([[good, "alice"]]))
        assert cli.main(["allocate", worked_file, "--priority-file", str(pf)]) == 2
