package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"flashmob/internal/gen"
	"flashmob/internal/graph"
	"flashmob/internal/rng"
)

// Every input is a pure function of the workload seed. The graph is
// generated off the clock and cached on disk, keyed by preset, scale and
// seed; a CRC-32C sidecar guards the cache against torn or stale files.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// graphKey names one generated graph.
type graphKey struct {
	Preset string
	Scale  uint32 // the preset's |V| is divided by Scale
	Seed   uint64
}

func (k graphKey) file(dir string) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%d-%d.csr", k.Preset, k.Scale, k.Seed))
}

// maxCachedGraphs bounds the graph cache: each offline graph is hundreds
// of MB, and every run of a sweep uses a fresh seed.
const maxCachedGraphs = 2

// cachedGraph returns the path of the binary CSR for k, generating and
// writing it first when the cache has no intact copy. It verifies the
// checksum of a cached copy, which also leaves the file in the page
// cache: every later read of it is warm.
func cachedGraph(dir string, k graphKey) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := k.file(dir)
	if want, err := os.ReadFile(path + ".crc"); err == nil {
		got, err := fileCRC(path)
		if err == nil && strconv.FormatUint(uint64(got), 16) == strings.TrimSpace(string(want)) {
			return path, nil
		}
	}
	g, err := generate(dir, k)
	if err != nil {
		return "", err
	}
	evictGraphs(dir, maxCachedGraphs-1)
	sum, err := writeGraph(path, g)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path+".crc", []byte(strconv.FormatUint(uint64(sum), 16)+"\n"), 0o644)
}

// evictGraphs deletes the oldest cached graphs until at most keep remain.
func evictGraphs(dir string, keep int) {
	paths, _ := filepath.Glob(filepath.Join(dir, "*.csr"))
	if len(paths) <= keep {
		return
	}
	mod := make(map[string]int64, len(paths))
	for _, p := range paths {
		if st, err := os.Stat(p); err == nil {
			mod[p] = st.ModTime().UnixNano()
		}
	}
	sort.Slice(paths, func(i, j int) bool { return mod[paths[i]] < mod[paths[j]] })
	for _, p := range paths[:len(paths)-keep] {
		os.Remove(p)
		os.Remove(p + ".crc")
	}
}

func writeGraph(path string, g *graph.CSR) (uint32, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	h := crc32.New(castagnoli)
	if err := graph.WriteBinary(io.MultiWriter(f, h), g); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return h.Sum32(), nil
}

func fileCRC(path string) (uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	h := crc32.New(castagnoli)
	if _, err := io.Copy(h, bufio.NewReaderSize(f, 1<<20)); err != nil {
		return 0, err
	}
	return h.Sum32(), nil
}

// loadGraph reads a binary CSR (the timed graph.load step).
func loadGraph(path string) (*graph.CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadBinary(bufio.NewReaderSize(f, 4<<20))
}

// generate builds the preset-shaped graph for k: the preset's piecewise
// power-law degree sequence (gen.DegreeSequencePiecewise, the shape
// gen.Preset.Generate uses), wired Chung-Lu style like gen.Wire. gen.Wire
// binary-searches the degree prefix sums once per edge, which takes
// minutes at the offline scale; here each draw is O(1) over
// cache-resident tables, so generation takes seconds.
func generate(dir string, k graphKey) (*graph.CSR, error) {
	p, err := gen.PresetByName(k.Preset)
	if err != nil {
		return nil, err
	}
	deg, err := degreeSequence(dir, p, k.Scale)
	if err != nil {
		return nil, err
	}
	return wire(deg, k.Seed), nil
}

// degreeSequence returns the preset's degree sequence at |V|/scale. It
// does not depend on the seed and takes seconds to solve at the offline
// scale, so it is cached on disk like the graphs.
func degreeSequence(dir string, p gen.Preset, scale uint32) ([]uint32, error) {
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.deg", p.Name, scale))
	if b, err := os.ReadFile(path); err == nil && len(b) >= 4 && len(b)%4 == 0 {
		body := b[:len(b)-4]
		if crc32.Checksum(body, castagnoli) == binary.LittleEndian.Uint32(b[len(b)-4:]) {
			deg := make([]uint32, len(body)/4)
			for i := range deg {
				deg[i] = binary.LittleEndian.Uint32(body[4*i:])
			}
			return deg, nil
		}
	}
	n := p.Config(scale, 0).NumVertices
	deg, err := gen.DegreeSequencePiecewise(n, p.AvgDegree, p.Buckets(), 0)
	if err != nil {
		return nil, err
	}
	b := make([]byte, 4*len(deg)+4)
	for i, d := range deg {
		binary.LittleEndian.PutUint32(b[4*i:], d)
	}
	binary.LittleEndian.PutUint32(b[4*len(deg):], crc32.Checksum(b[:4*len(deg)], castagnoli))
	return deg, os.WriteFile(path, b, 0o644)
}

// wireChunk is the unit of deterministic parallel wiring: each chunk of
// vertices draws from its own RNG stream, so the graph does not depend on
// the worker count.
const wireChunk = 1 << 15

// wire realises the non-increasing degree sequence deg: each edge's
// target is drawn with probability proportional to the target's degree.
// Vertices of equal degree form a class; a draw picks a class by an alias
// table weighted by class edge mass, then a uniform member. Self-loops
// are re-drawn up to 8 times, as gen.Wire does. Adjacency lists are
// sorted, so the result is a valid degree-sorted CSR.
func wire(deg []uint32, seed uint64) *graph.CSR {
	n := len(deg)
	offsets := make([]uint64, n+1)
	for v, d := range deg {
		offsets[v+1] = offsets[v] + uint64(d)
	}
	targets := make([]graph.VID, offsets[n])

	// Degree classes: runs of equal degree in the sorted sequence.
	var start []uint32
	var mass []float64
	for v := 0; v < n; v++ {
		if v == 0 || deg[v] != deg[v-1] {
			start = append(start, uint32(v))
			mass = append(mass, 0)
		}
		mass[len(mass)-1] += float64(deg[v])
	}
	start = append(start, uint32(n))
	prob, alias := aliasTable(mass)
	classes := uint32(len(mass))

	chunks := (n + wireChunk - 1) / wireChunk
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.NewXorShift1024Star(1)
			for c := w; c < chunks; c += workers {
				src.Reseed(rng.Mix64(seed ^ rng.Mix64(uint64(c)+1)))
				lo, hi := c*wireChunk, min((c+1)*wireChunk, n)
				for v := lo; v < hi; v++ {
					adj := targets[offsets[v]:offsets[v+1]]
					for i := range adj {
						t := draw(src, classes, prob, alias, start)
						for r := 0; t == graph.VID(v) && r < 8; r++ {
							t = draw(src, classes, prob, alias, start)
						}
						adj[i] = t
					}
					slices.Sort(adj)
				}
			}
		}(w)
	}
	wg.Wait()
	return &graph.CSR{Offsets: offsets, Targets: targets}
}

func draw(src *rng.XorShift1024Star, classes uint32, prob []float64, alias []uint32, start []uint32) graph.VID {
	c := src.Uint32n(classes)
	if src.Float64() >= prob[c] {
		c = alias[c]
	}
	return graph.VID(start[c] + src.Uint32n(start[c+1]-start[c]))
}

// aliasTable builds Vose's alias table for the weights w.
func aliasTable(w []float64) (prob []float64, alias []uint32) {
	n := len(w)
	prob = make([]float64, n)
	alias = make([]uint32, n)
	var sum float64
	for _, x := range w {
		sum += x
	}
	var small, large []uint32
	for i, x := range w {
		prob[i] = x * float64(n) / sum
		if prob[i] < 1 {
			small = append(small, uint32(i))
		} else {
			large = append(large, uint32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s, l := small[len(small)-1], large[len(large)-1]
		small = small[:len(small)-1]
		alias[s] = l
		prob[l] -= 1 - prob[s]
		if prob[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	for _, i := range append(small, large...) {
		prob[i] = 1
	}
	return prob, alias
}

// crcOfVIDs folds a VID sequence into a running CRC-32C: the trajectory
// hash the checkers compare.
func crcOfVIDs(crc uint32, vs []graph.VID) uint32 {
	var buf [4096]byte
	for len(vs) > 0 {
		k := min(len(vs), len(buf)/4)
		for i, v := range vs[:k] {
			binary.LittleEndian.PutUint32(buf[4*i:], v)
		}
		crc = crc32.Update(crc, castagnoli, buf[:4*k])
		vs = vs[k:]
	}
	return crc
}
