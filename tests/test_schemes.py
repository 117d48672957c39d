"""What a scheme accepts, the same on the closed-form, quadrature and Monte
Carlo paths, and closed-form and quadrature values pinned bit for bit."""

from dataclasses import replace

import pytest

from bfoutage import analytic
from bfoutage.analytic import (
    AccuracyError,
    SchemeId,
    outage_closed,
    outage_pbf_closed,
    outage_semianalytic,
    outage_tas_closed,
)
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
#: quadrature) at rate 2, recorded on commit 615fc83, before the scheme table.
#: miso-tas at 5 dB, rho 0.95 re-recorded its quadrature (-7e-16 relative)
#: when the kernel's first window got a narrower upper half, and again
#: (+5e-16) when its upper edge was measured from the peak itself.  Six
#: quadratures here re-recorded (at most 3e-16 relative) when windows from
#: k = 0 took their Poisson weights by recurrence, and eight (at most 3e-16)
#: when those windows were summed nested from their top term down.  mu-rvq
#: with n_t = 1 at rho 0.9 re-recorded its quadrature (+1.1e-16) when the
#: schemes whose captured fraction is identically 1 took the one-node nu rule.
PINNED = (
    ('miso-pbf', (4, 1, 1), 10.0, 0.9, None, 0.09740372470677859, 0.09740372470677766),
    ('miso-pbf', (1, 1, 1), 10.0, 0.8, None, 0.25918177931828207, 0.25918177931829467),
    ('miso-pbf', (4, 1, 1), 15.0, 1.0, None, 0.0006390330417503666, 0.0006390330417503666),
    ('miso-pbf', (2, 1, 1), 20.0, 0.0, None, 0.05823546641575128, 0.05823546641569258),
    ('miso-rvq', (4, 1, 1), 10.0, 0.9, 8, 0.31407969960215293, 0.31407969960214976),
    ('miso-rvq', (2, 1, 1), 5.0, 0.8, 1, 0.8500369871213649, 0.8500369871212654),
    ('miso-rvq', (1, 1, 1), 10.0, 0.9, 8, 0.2591817793182821, 0.25918177931830066),
    ('miso-rvq', (4, 1, 1), 10.0, 1.0, 16, 0.13554151501831788, 0.1355415150183179),
    ('miso-tas', (4, 1, 1), 10.0, 0.9, None, 0.3461928506806874, 0.34619285068068406),
    ('miso-tas', (1, 1, 1), 5.0, 0.95, None, 0.612749418491547, 0.6127494184915684),
    ('miso-tas', (3, 1, 1), 20.0, 1.0, None, 0.000637584083278318, 0.0006375840832783165),
    ('mu-tas', (4, 2, 2), 10.0, 0.9, None, 0.018758432038483153, 0.018758432038478486),
    ('mu-tas', (2, 3, 2), 5.0, 0.8, None, 0.09370713511811246, 0.09370713511811224),
    ('mu-tas', (1, 2, 3), 10.0, 1.0, None, 5.0391887918086976e-05, 5.0391887918086976e-05),
    ('mu-tas', (4, 1, 1), 20.0, 0.95, None, 0.004027661843851893, 0.00402766184385212),
    ('mu-pbf', (4, 1, 2), 10.0, 0.9, None, 0.0060706599086792394, 0.006070659908679154),
    ('mu-pbf', (3, 1, 3), 5.0, 0.0, None, 0.5414506103976494, 0.541450610397106),
    ('mu-pbf', (1, 1, 2), 10.0, 0.8, None, 0.1616427353377613, 0.16164273533776036),
    ('mu-pbf', (4, 1, 2), 15.0, 1.0, None, 4.083632284487258e-07, 4.083632284487258e-07),
    ('mu-rvq', (4, 1, 2), 10.0, 0.9, 8, 0.06357848811873476, 0.06357848811873415),
    ('mu-rvq', (2, 1, 3), 5.0, 0.8, 4, 0.4446698939798768, 0.44466989397987183),
    ('mu-rvq', (1, 1, 2), 10.0, 0.9, 8, 0.12235111659124764, 0.12235111659124692),
    ('mu-rvq', (4, 1, 2), 10.0, 1.0, 8, 0.06554332723939539, 0.06554332723939539),
    ('mu-rvq', (4, 1, 1), 15.0, 0.95, 2, 0.0427416212491324, 0.042741621249131626),
)
#: The same, recorded on commit 90e3536, before the chi-square kernel's
#: windows were centred on the peak of their terms: the quadrature points
#: whose windows moved most.  miso-rvq at rho 0.97 re-recorded its quadrature
#: (-1.1e-15 relative) when the first window got a narrower upper half.  It,
#: mu-rvq at rho 0.97 and miso-pbf at 30 dB re-recorded (at most 1.3e-15)
#: when windows from k = 0 took their Poisson weights by recurrence, miso-rvq
#: also for the first window's upper edge.  miso-pbf at 30 dB, mu-pbf at 30 dB
#: and miso-rvq at 40 dB re-recorded (at most 4.7e-16) when those windows
#: were summed nested from their top term down.
PINNED_WINDOWS = (
    ('miso-rvq', (4, 1, 1), 10.0, 0.97, 8, 0.24396618997950803, 0.24396618997950525),
    ('mu-rvq', (4, 1, 2), 10.0, 0.97, 8, 0.06582931901343485, 0.06582931901343408),
    ('miso-pbf', (4, 1, 1), 30.0, 0.999, None, 3.505288667769678e-09, 3.5053101466093852e-09),
    ('mu-tas', (4, 2, 2), 30.0, 0.99, None, 1.7997756063259374e-17, 1.477150876443806e-17),
    ('mu-pbf', (4, 1, 2), 30.0, 0.99, None, 1.2632583175810485e-14, 1.2632583181668784e-14),
    ('miso-rvq', (4, 1, 1), 40.0, 0.9, 8, 7.045011455731598e-05, 7.045011455731538e-05),
    ('miso-rvq', (4, 1, 1), 50.0, 0.9, 8, 7.014267683631548e-06, 7.014267683631491e-06),
)

#: The same, recorded on commit 9873610, before the multiuser selection sum
#: was evaluated as array updates: the sums of largest degree.  Some closed
#: forms here are far from quadrature; the pins hold the float operations,
#: not the accuracy.  Four quadratures here re-recorded (at most 5.9e-15
#: relative) when windows from k = 0 took their Poisson weights by
#: recurrence, and six (at most 3.8e-16) when those windows were summed
#: nested from their top term down.  mu-tas with 32 users re-recorded its
#: quadrature (-1.5e-16) when it took the one-node nu rule, and its closed
#: form, which cancels to 7.5e21 and was clipped to 1.0, now raises.
PINNED_SUMS = (
    ('mu-tas', (4, 3, 8), 10.0, 0.9, None, 1.7750669106031403e-05, 1.7615431304116157e-05),
    ('mu-tas', (4, 1, 32), 10.0, 0.9, None, AccuracyError, 0.00282359057634004),
    ('mu-pbf', (4, 1, 16), 10.0, 0.9, None, 4.402409641649877e-06, 4.402410678391355e-06),
    ('mu-rvq', (4, 1, 4), 10.0, 0.9, 8, 0.028739687155990477, 0.02873968715599038),
    ('mu-tas', (4, 3, 8), 30.0, 0.99, None, 0.0, 3.473794743975364e-53),
    ('mu-pbf', (4, 1, 16), 5.0, 0.97, None, 0.0018693358197277021, 0.0018693358140811204),
)


def _closed(scheme, config, size):
    """The closed form's value, or AccuracyError where it cancelled."""
    try:
        return outage_closed(scheme, config, size).value
    except AccuracyError:
        return AccuracyError


@pytest.mark.parametrize(
    "case", PINNED + PINNED_WINDOWS + PINNED_SUMS,
    ids=lambda c: f"{c[0]}-{c[1]}-{c[2]:g}dB-rho{c[3]:g}",
)
def test_pinned_values(case):
    name, (n_t, n_r, n_u), snr_db, rho, size, closed, quad = case
    scheme, config = SchemeId(name), cfg(nt=n_t, nr=n_r, nu=n_u, snr_db=snr_db, rho=rho)
    assert _closed(scheme, config, size) == closed
    assert outage_semianalytic(scheme, config, codebook_size=size).value == quad


#: (scheme, (n_t, n_r, n_u), snr_db, rho, codebook size, variant, closed form
#: as float.hex, flags) at rate 2, recorded on commit 2a44973, before the
#: closed forms became one body over the scheme table: the RVQ schemes at
#: n_t = 1 and rho = 1, which the matched-filter evaluators answered, and the
#: diagnostic variants, which are reported unclipped.
PINNED_ROUTES = (
    ('miso-rvq', (1, 1, 1), 10.0, 1.0, 8, 'corrected', '0x1.0966f2c7907f5p-2', ()),
    ('mu-rvq', (1, 1, 2), 10.0, 1.0, 8, 'corrected', '0x1.13264c07866cap-4', ()),
    ('miso-pbf', (4, 1, 1), 10.0, 0.9, None, 'factorial', '0x1.ead0ce5296c3fp-5',
     ('coefficient-factorial',)),
    ('miso-pbf', (4, 1, 1), 10.0, 0.9, None, 'verbatim', 'inf', ('coefficient-verbatim',)),
    ('miso-pbf', (1, 1, 1), 10.0, 0.9, None, 'verbatim', '-0x1.0966f2c7907f6p-2',
     ('coefficient-verbatim',)),
    ('miso-tas', (4, 1, 1), 10.0, 0.9, None, 'verbatim', '0x1.72a4d9019f9b2p-1',
     ('exponent-verbatim',)),
)


@pytest.mark.parametrize(
    "case", PINNED_ROUTES, ids=lambda c: f"{c[0]}-nt{c[1][0]}-rho{c[3]:g}-{c[5]}",
)
def test_pinned_routes(case):
    name, (n_t, n_r, n_u), snr_db, rho, size, variant, value, flags = case
    scheme, config = SchemeId(name), cfg(nt=n_t, nr=n_r, nu=n_u, snr_db=snr_db, rho=rho)
    est = outage_closed(scheme, config, size, variant=variant)
    assert (est.value.hex(), est.flags) == (value, flags)


def _refuse(*args, **kwargs):
    raise AssertionError("an evaluation path read another path's field")


class TestPathIndependence:
    """Beyond validation, the closed form reads a record's ideal, aged,
    variants and flag, and the quadrature its law: each returns its pinned
    values with the other's fields refused."""

    def _refuse_fields(self, monkeypatch, *fields):
        for scheme, record in list(analytic.SCHEMES.items()):
            monkeypatch.setitem(
                analytic.SCHEMES, scheme, replace(record, **dict.fromkeys(fields, _refuse)))

    def test_closed_form_reads_no_law(self, monkeypatch):
        self._refuse_fields(monkeypatch, "law")
        for name, (n_t, n_r, n_u), snr_db, rho, size, closed, _ in (
            PINNED + PINNED_WINDOWS + PINNED_SUMS
        ):
            config = cfg(nt=n_t, nr=n_r, nu=n_u, snr_db=snr_db, rho=rho)
            assert _closed(SchemeId(name), config, size) == closed

    def test_quadrature_reads_no_closed_form(self, monkeypatch):
        self._refuse_fields(monkeypatch, "ideal", "aged")
        for name, (n_t, n_r, n_u), snr_db, rho, size, _, quad in PINNED:
            config = cfg(nt=n_t, nr=n_r, nu=n_u, snr_db=snr_db, rho=rho)
            assert outage_semianalytic(SchemeId(name), config, codebook_size=size).value == quad


class TestVariants:
    """A scheme accepts the formula variants its record lists, through
    outage_closed only; its entry point gives the corrected value."""

    def test_scheme_without_variants_refuses_one(self):
        with pytest.raises(ValueError, match="variant must be one of"):
            outage_closed(SchemeId.MU_TAS, cfg(nr=2, nu=2), variant="verbatim")

    @pytest.mark.parametrize("rho", [0.9, 1.0])
    def test_unknown_variant_refused(self, rho):
        with pytest.raises(ValueError, match=r"variant must be one of \('corrected', "):
            outage_closed(SchemeId.MISO_PBF, cfg(rho=rho), variant="typo")

    @pytest.mark.parametrize("scheme, entry", [
        (SchemeId.MISO_PBF, outage_pbf_closed),
        (SchemeId.MISO_TAS, outage_tas_closed),
    ], ids=["miso-pbf", "miso-tas"])
    @pytest.mark.parametrize("n_t", [1, 4])
    def test_entry_point_is_outage_closed(self, scheme, entry, n_t):
        config = cfg(nt=n_t)
        est, ref = outage_closed(scheme, config), entry(config)
        assert (est.value.hex(), est.flags) == (ref.value.hex(), ref.flags)
