// Package scenario layers composable adversarial event overlays on top of
// simnet's generative model: flash crowds, sector outages, missing-data
// storms, seasonal drift and time-of-day load shifts — the ugly days on
// which production hot-spot forecasting is actually judged, and exactly the
// regimes the paper's steady-state evaluation never probes.
//
// Overlays perturb the emitted KPI tensor (never the latent generator
// state) and declare their ground-truth perturbation by updating the
// sector's hot-drive row, so scenario datasets stay labelable end to end:
// labels still flow from the perturbed KPIs through the score chain, and
// Truth.HotDrive stays aligned with what the overlays drove.
//
// Determinism contract (the standing invariant of this repo): every random
// draw an overlay makes is keyed by the overlay's identity plus — for
// per-sector draws — the sector index, never by scheduling order. A pack
// therefore composes bit-identically at any worker count, any chunk size,
// and identically through the materialized (Apply/Generate) and streamed
// (GenerateStream) paths.
package scenario

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/randx"
	"repro/internal/simnet"
	"repro/internal/timegrid"
)

// Env is the realized generation context overlays see: the time grid, the
// network topology and the dataset seed. Overlays must treat it as
// read-only.
type Env struct {
	Grid *timegrid.Grid
	Topo *simnet.Topology
	Seed uint64
}

// SectorBlock is a mutable view of one sector's emitted block: the T x F
// KPI rows (row-major, NaN = missing) plus the ground-truth hot-drive row.
type SectorBlock struct {
	T, F int
	K    []float64 // T x F KPI values
	Hot  []uint8   // T-hour ground-truth hot-drive row (0/1)
}

// At returns KPI f at hour j.
func (b *SectorBlock) At(j, f int) float64 { return b.K[j*b.F+f] }

// Set assigns KPI f at hour j.
func (b *SectorBlock) Set(j, f int, v float64) { b.K[j*b.F+f] = v }

// Overlay is one composable scenario event. Prepare runs once per
// generation and derives any shared state (epicentres, storm windows) from
// the overlay's own stream; ApplySector perturbs one sector's block in
// place and may run concurrently across sectors, drawing only from the
// passed sector-keyed stream.
type Overlay interface {
	// Name identifies the overlay; it keys the overlay's RNG streams, so
	// it must be unique within a pack.
	Name() string
	// LabelEffect documents the overlay's declared ground-truth
	// perturbation (how it updates the hot-drive row, if at all); it is
	// carried into the evaluation-matrix artifact.
	LabelEffect() string
	// Prepare derives shared overlay state from rng, which is keyed by
	// (seed, overlay name).
	Prepare(env *Env, rng *randx.RNG) error
	// ApplySector perturbs sector i's block using rng, which is keyed by
	// (seed, overlay name, i).
	ApplySector(env *Env, i int, blk *SectorBlock, rng *randx.RNG)
}

// Pack is a named, ordered composition of overlays. Overlays are applied in
// order to each sector; because every overlay draws from its own identity-
// keyed streams, order influences only the value arithmetic, never the
// randomness.
type Pack struct {
	Name     string
	Desc     string
	Overlays []Overlay
}

// Validate reports packs that would violate the determinism contract.
func (p Pack) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("scenario: pack with empty name")
	}
	seen := map[string]bool{}
	for _, ov := range p.Overlays {
		if ov.Name() == "" {
			return fmt.Errorf("scenario: pack %q has an overlay with an empty name", p.Name)
		}
		if seen[ov.Name()] {
			return fmt.Errorf("scenario: pack %q repeats overlay name %q", p.Name, ov.Name())
		}
		seen[ov.Name()] = true
	}
	return nil
}

// RNG-stream salts: one for overlay Prepare streams, one for per-sector
// Apply streams, distinct so the two never collide.
const (
	prepareSalt = 0x6f766c70 // "ovlp"
	sectorSalt  = 0x6f766c73 // "ovls"
)

func prepareRNG(seed uint64, name string) *randx.RNG {
	return randx.DeriveIndexed(seed, prepareSalt, "overlay:"+name, 0)
}

func sectorRNG(seed uint64, name string, sector int) *randx.RNG {
	return randx.DeriveIndexed(seed, sectorSalt, "overlay:"+name, sector)
}

// prepared is a pack whose overlays have derived their shared state for one
// generation environment.
type prepared struct {
	env  *Env
	pack Pack
}

func prepare(env *Env, pack Pack) (*prepared, error) {
	if err := pack.Validate(); err != nil {
		return nil, err
	}
	for _, ov := range pack.Overlays {
		if err := ov.Prepare(env, prepareRNG(env.Seed, ov.Name())); err != nil {
			return nil, fmt.Errorf("scenario: prepare %s/%s: %w", pack.Name, ov.Name(), err)
		}
	}
	return &prepared{env: env, pack: pack}, nil
}

// applySector runs the pack's overlays over one sector block, in pack
// order, each with its own sector-keyed stream.
func (p *prepared) applySector(i int, blk *SectorBlock) {
	for _, ov := range p.pack.Overlays {
		ov.ApplySector(p.env, i, blk, sectorRNG(p.env.Seed, ov.Name(), i))
	}
}

// Apply applies the pack to a materialized dataset in place, parallel
// across sectors and bit-identical to the streamed path.
func Apply(ds *simnet.Dataset, pack Pack) error {
	env := &Env{Grid: ds.Grid, Topo: ds.Topo, Seed: ds.Config.Seed}
	p, err := prepare(env, pack)
	if err != nil {
		return err
	}
	mh := ds.Grid.Hours()
	return parallel.For(0, ds.N(), func(i int) error {
		blk := &SectorBlock{T: mh, F: ds.K.F, K: ds.K.Sector(i), Hot: ds.Truth.HotDrive.Row(i)}
		p.applySector(i, blk)
		return nil
	})
}

// Generate materializes a scenario dataset: the base generator output with
// the pack's overlays applied.
func Generate(cfg simnet.Config, pack Pack) (*simnet.Dataset, error) {
	ds, err := simnet.Generate(cfg)
	if err != nil {
		return nil, err
	}
	if err := Apply(ds, pack); err != nil {
		return nil, err
	}
	return ds, nil
}

// GenerateStream streams the scenario dataset in chunks, applying the
// pack's overlays to each chunk before it is emitted. The full KPI tensor
// is never materialized, and the emitted values are bit-identical to
// Generate at every chunk size.
func GenerateStream(cfg simnet.Config, pack Pack, chunkSectors int, emit func(*simnet.Chunk) error) error {
	s, err := simnet.NewStream(cfg)
	if err != nil {
		return err
	}
	env := &Env{Grid: s.Grid(), Topo: s.Topo(), Seed: cfg.Seed}
	p, err := prepare(env, pack)
	if err != nil {
		return err
	}
	mh := s.Grid().Hours()
	return s.Stream(chunkSectors, func(c *simnet.Chunk) error {
		if err := parallel.For(0, c.Hi-c.Lo, func(r int) error {
			blk := &SectorBlock{T: mh, F: c.K.F, K: c.K.Sector(r), Hot: c.Hot.Row(r)}
			p.applySector(c.Lo+r, blk)
			return nil
		}); err != nil {
			return err
		}
		return emit(c)
	})
}
