"""What a scheme accepts, the same on the closed-form, quadrature and Monte
Carlo paths, and closed-form and quadrature values pinned bit for bit."""

from dataclasses import replace

import pytest

from bfoutage.analytic import SchemeId, outage_closed, outage_semianalytic
from bfoutage.channel import RngStream
from bfoutage.codebook import rvq_generate
from bfoutage.montecarlo import TrialPlan, simulate_outage

from _util import cfg

#: scheme -> the config fields it fixes at 1 (written out here, not read
#: from the scheme table)
FIXED = {
    SchemeId.MISO_PBF: ("n_r", "n_u"),
    SchemeId.MISO_RVQ: ("n_r", "n_u"),
    SchemeId.MISO_TAS: ("n_r", "n_u"),
    SchemeId.MU_TAS: (),
    SchemeId.MU_PBF: ("n_r",),
    SchemeId.MU_RVQ: ("n_r",),
}
RVQ = (SchemeId.MISO_RVQ, SchemeId.MU_RVQ)


def _paths(scheme, config, size):
    """Closed form, quadrature and Monte Carlo at one point; Monte Carlo gets
    a codebook of `size` vectors, or none when size is None or 0."""

    def monte_carlo():
        cb = rvq_generate(RngStream(3, 1), size, config.n_t) if size else None
        return simulate_outage(scheme, config, cb, TrialPlan(trials=1000, seed=3)).outage_count

    return {
        "closed": lambda: outage_closed(scheme, config, size).value,
        "quadrature": lambda: outage_semianalytic(scheme, config, codebook_size=size).value,
        "monte_carlo": monte_carlo,
    }


@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
class TestContract:
    def test_fixed_fields(self, scheme):
        free = replace(cfg(), **{f: 2 for f in ("n_r", "n_u") if f not in FIXED[scheme]})
        for run in _paths(scheme, free, 8).values():
            run()
        for field in FIXED[scheme]:
            for run in _paths(scheme, replace(free, **{field: 2}), 8).values():
                with pytest.raises(ValueError, match=f"requires.*{field} = 1"):
                    run()

    @pytest.mark.parametrize("n_t", [1, 4])
    def test_codebook_size(self, scheme, n_t):
        config = cfg(nt=n_t, nu=1 if "n_u" in FIXED[scheme] else 2)
        if scheme in RVQ:
            for size in (None, 0):
                for run in _paths(scheme, config, size).values():
                    with pytest.raises(ValueError, match="codebook"):
                        run()
            for run in _paths(scheme, config, 1).values():
                run()
        else:
            outcomes = [
                {path: run() for path, run in _paths(scheme, config, size).items()}
                for size in (None, 0, 1, 8)
            ]
            assert all(o == outcomes[0] for o in outcomes[1:])


#: (scheme, (n_t, n_r, n_u), snr_db, rho, codebook size, closed form,
#: quadrature) at rate 2, recorded on commit 615fc83, before the scheme table
PINNED = (
    ('miso-pbf', (4, 1, 1), 10.0, 0.9, None, 0.09740372470677859, 0.09740372470677766),
    ('miso-pbf', (1, 1, 1), 10.0, 0.8, None, 0.25918177931828207, 0.2591817793182947),
    ('miso-pbf', (4, 1, 1), 15.0, 1.0, None, 0.0006390330417503666, 0.0006390330417503666),
    ('miso-pbf', (2, 1, 1), 20.0, 0.0, None, 0.05823546641575128, 0.05823546641569258),
    ('miso-rvq', (4, 1, 1), 10.0, 0.9, 8, 0.31407969960215293, 0.31407969960214976),
    ('miso-rvq', (2, 1, 1), 5.0, 0.8, 1, 0.8500369871213649, 0.8500369871212654),
    ('miso-rvq', (1, 1, 1), 10.0, 0.9, 8, 0.2591817793182821, 0.25918177931830066),
    ('miso-rvq', (4, 1, 1), 10.0, 1.0, 16, 0.13554151501831788, 0.1355415150183179),
    ('miso-tas', (4, 1, 1), 10.0, 0.9, None, 0.3461928506806874, 0.34619285068068406),
    ('miso-tas', (1, 1, 1), 5.0, 0.95, None, 0.612749418491547, 0.6127494184915684),
    ('miso-tas', (3, 1, 1), 20.0, 1.0, None, 0.000637584083278318, 0.0006375840832783165),
    ('mu-tas', (4, 2, 2), 10.0, 0.9, None, 0.018758432038483153, 0.01875843203847849),
    ('mu-tas', (2, 3, 2), 5.0, 0.8, None, 0.09370713511811246, 0.09370713511811225),
    ('mu-tas', (1, 2, 3), 10.0, 1.0, None, 5.0391887918086976e-05, 5.0391887918086976e-05),
    ('mu-tas', (4, 1, 1), 20.0, 0.95, None, 0.004027661843851893, 0.00402766184385212),
    ('mu-pbf', (4, 1, 2), 10.0, 0.9, None, 0.0060706599086792394, 0.006070659908679152),
    ('mu-pbf', (3, 1, 3), 5.0, 0.0, None, 0.5414506103976494, 0.541450610397106),
    ('mu-pbf', (1, 1, 2), 10.0, 0.8, None, 0.1616427353377613, 0.16164273533776036),
    ('mu-pbf', (4, 1, 2), 15.0, 1.0, None, 4.083632284487258e-07, 4.083632284487258e-07),
    ('mu-rvq', (4, 1, 2), 10.0, 0.9, 8, 0.06357848811873476, 0.06357848811873415),
    ('mu-rvq', (2, 1, 3), 5.0, 0.8, 4, 0.4446698939798768, 0.4446698939798718),
    ('mu-rvq', (1, 1, 2), 10.0, 0.9, 8, 0.12235111659124764, 0.1223511165912469),
    ('mu-rvq', (4, 1, 2), 10.0, 1.0, 8, 0.06554332723939539, 0.06554332723939539),
    ('mu-rvq', (4, 1, 1), 15.0, 0.95, 2, 0.0427416212491324, 0.042741621249131626),
)


@pytest.mark.parametrize("case", PINNED, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]:g}dB-rho{c[3]:g}")
def test_pinned_values(case):
    name, (n_t, n_r, n_u), snr_db, rho, size, closed, quad = case
    scheme, config = SchemeId(name), cfg(nt=n_t, nr=n_r, nu=n_u, snr_db=snr_db, rho=rho)
    assert outage_closed(scheme, config, size).value == closed
    assert outage_semianalytic(scheme, config, codebook_size=size).value == quad
