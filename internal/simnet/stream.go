package simnet

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/randx"
	"repro/internal/tensor"
	"repro/internal/timegrid"
)

// DefaultChunkSectors is the chunk size used when GenerateStream is called
// with a non-positive one: big enough to amortise the parallel fan-out,
// small enough that a chunk of a multi-year window stays in the tens of
// megabytes.
const DefaultChunkSectors = 256

// Stream is a prepared generator that emits the synthetic dataset in sector
// chunks. The cheap, shared state — topology, profiles, country-level
// events, the bad-sector wipe plan — is materialised up front; per-sector
// KPI emission happens chunk by chunk, so a 100k-sector multi-year dataset
// never holds the full KPI tensor in memory. Per-sector randomness is keyed
// by sector index, so any chunking (including the whole-range chunk used by
// Generate) produces bit-identical values.
type Stream struct {
	cfg    Config
	grid   *timegrid.Grid
	topo   *Topology
	shared *sharedEvents
	wipes  map[int][]int
}

// NewStream validates the configuration and materialises the shared
// generation state. The root-stream derivations happen in the same order as
// they always have (topology, profiles, events, missing), keeping streamed
// output bit-identical to the historical materialized generator.
func NewStream(cfg Config) (*Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	grid, err := timegrid.New(timegrid.PaperStart, cfg.Weeks)
	if err != nil {
		return nil, err
	}
	root := randx.New(cfg.Seed, 0x9e3779b97f4a7c15)
	topo := buildTopology(topologyConfig{
		sectors:       cfg.Sectors,
		cities:        cfg.Cities,
		countrySpanKM: 420,
		citySpreadKM:  4.5,
		ruralFraction: 0.25,
	}, root.Derive("topology"))
	assignProfiles(topo, cfg, root.Derive("profiles"))
	shared := buildSharedEvents(grid, root.Derive("events"), topo)
	wipes := planBadWipes(len(topo.Sectors), grid.Hours(), cfg, root.Derive("missing"))
	return &Stream{cfg: cfg, grid: grid, topo: topo, shared: shared, wipes: wipes}, nil
}

// N returns the realised sector count (>= cfg.Sectors; the last tower may
// overshoot).
func (s *Stream) N() int { return len(s.topo.Sectors) }

// Grid returns the stream's time grid.
func (s *Stream) Grid() *timegrid.Grid { return s.grid }

// Topo returns the realised topology.
func (s *Stream) Topo() *Topology { return s.topo }

// Config returns the generating configuration.
func (s *Stream) Config() Config { return s.cfg }

// Chunk is one streamed block of consecutive sectors [Lo, Hi): their KPI
// block, ground-truth hot-drive rows, and emerging episodes. Row r of K and
// Hot is sector Lo+r.
type Chunk struct {
	Lo, Hi   int
	K        *tensor.Tensor3 // (Hi-Lo) x mh x NumKPIs
	Hot      *tensor.Mask    // (Hi-Lo) x mh, 0/1
	Episodes []Episode
}

// emitInto generates sector i into the given row views: kRow is the mh x
// NumKPIs block, hotRow the mh-hour ground-truth row. It returns the
// sector's emerging episodes.
func (s *Stream) emitInto(i int, kRow []float64, hotRow []uint8) []Episode {
	rng := randx.DeriveIndexed(s.cfg.Seed, 0x5bf03635, "sector", i)
	sched, eps := buildSchedule(&s.topo.Sectors[i], s.grid, rng, s.cfg)
	emitSector(i, s.topo, s.grid, &sched, s.shared, kRow, hotRow, rng)
	injectSectorMissing(kRow, NumKPIs, s.grid.Hours(), i, s.cfg)
	wipeHours(kRow, NumKPIs, s.wipes[i])
	return eps
}

// Chunk materialises sectors [lo, hi), parallel across the chunk's sectors.
func (s *Stream) Chunk(lo, hi int) (*Chunk, error) {
	if lo < 0 || hi > s.N() || lo >= hi {
		return nil, fmt.Errorf("simnet: chunk [%d,%d) out of range [0,%d)", lo, hi, s.N())
	}
	mh := s.grid.Hours()
	c := &Chunk{
		Lo:  lo,
		Hi:  hi,
		K:   tensor.NewTensor3(hi-lo, mh, NumKPIs),
		Hot: tensor.NewMask(hi-lo, mh),
	}
	eps := make([][]Episode, hi-lo)
	if err := parallel.For(0, hi-lo, func(r int) error {
		eps[r] = s.emitInto(lo+r, c.K.Sector(r), c.Hot.Row(r))
		return nil
	}); err != nil {
		return nil, err
	}
	for _, e := range eps {
		c.Episodes = append(c.Episodes, e...)
	}
	return c, nil
}

// Stream emits the whole dataset as consecutive chunks of at most
// chunkSectors sectors (DefaultChunkSectors when non-positive), calling emit
// for each in sector order. A non-nil error from emit aborts the stream and
// is returned unchanged, so callers can stop early with a sentinel.
func (s *Stream) Stream(chunkSectors int, emit func(*Chunk) error) error {
	if chunkSectors <= 0 {
		chunkSectors = DefaultChunkSectors
	}
	n := s.N()
	for lo := 0; lo < n; lo += chunkSectors {
		hi := min(lo+chunkSectors, n)
		c, err := s.Chunk(lo, hi)
		if err != nil {
			return err
		}
		if err := emit(c); err != nil {
			return err
		}
	}
	return nil
}

// GenerateStream builds the shared generation state and streams the dataset
// in chunks. It is deterministic in cfg.Seed and bit-identical to Generate
// at every chunk size and worker count.
func GenerateStream(cfg Config, chunkSectors int, emit func(*Chunk) error) error {
	s, err := NewStream(cfg)
	if err != nil {
		return err
	}
	return s.Stream(chunkSectors, emit)
}
