package nn

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// mlpJSON is the serialized form of an MLP.
type mlpJSON struct {
	Sizes   []int       `json:"sizes"`
	Weights [][]float64 `json:"weights"` // layer-major: w0, b0, w1, b1, ...
}

// Save writes the network weights as JSON. Trained agents are persisted
// this way so inference agents can load the selected policy (Alg. 1,
// ln. 13-14).
func (m *MLP) Save(w io.Writer) error {
	j := mlpJSON{Sizes: m.sizes}
	for _, l := range m.layers {
		j.Weights = append(j.Weights, l.w, l.b)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(j); err != nil {
		return fmt.Errorf("nn: saving network: %w", err)
	}
	return nil
}

// SaveFile atomically writes the network to path: the JSON is written to
// a temporary file in the same directory, fsynced, and renamed into
// place, so a crash mid-write can never leave a truncated (yet
// loadable-looking) weights file behind.
func (m *MLP) SaveFile(path string) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("nn: saving network: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = m.Save(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("nn: saving network: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("nn: saving network: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("nn: saving network: %w", err)
	}
	return nil
}

// Load reads a network saved with Save. It rejects malformed shapes and
// non-finite weights: a NaN or Inf parameter silently poisons every
// subsequent forward pass, so it must fail loudly at load time.
func Load(r io.Reader) (*MLP, error) {
	var j mlpJSON
	if err := json.NewDecoder(r).Decode(&j); err != nil {
		return nil, fmt.Errorf("nn: loading network: %w", err)
	}
	return fromJSON(j)
}

// fromJSON validates a decoded network and builds the MLP.
func fromJSON(j mlpJSON) (*MLP, error) {
	if len(j.Sizes) < 2 {
		return nil, fmt.Errorf("nn: loaded network has invalid sizes %v", j.Sizes)
	}
	// Layer sizes must be positive and sane: a zero or negative size
	// builds a degenerate network that passes the length checks below
	// (e.g. sizes [-1,0] with empty weight blocks), and absurdly large
	// sizes can overflow the in*out shape arithmetic.
	const maxLayerSize = 1 << 24
	for _, sz := range j.Sizes {
		if sz <= 0 || sz > maxLayerSize {
			return nil, fmt.Errorf("nn: loaded network has invalid sizes %v", j.Sizes)
		}
	}
	if len(j.Weights) != 2*(len(j.Sizes)-1) {
		return nil, fmt.Errorf("nn: loaded network has %d weight blocks, want %d",
			len(j.Weights), 2*(len(j.Sizes)-1))
	}
	m := &MLP{sizes: j.Sizes}
	for i := 0; i+1 < len(j.Sizes); i++ {
		in, out := j.Sizes[i], j.Sizes[i+1]
		w, b := j.Weights[2*i], j.Weights[2*i+1]
		if len(w) != in*out || len(b) != out {
			return nil, fmt.Errorf("nn: layer %d weight shapes %d/%d, want %d/%d",
				i, len(w), len(b), in*out, out)
		}
		for _, block := range [][]float64{w, b} {
			for _, v := range block {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("nn: layer %d contains non-finite weight %v", i, v)
				}
			}
		}
		d := &dense{in: in, out: out, w: w, wt: make([]float64, in*out), b: b}
		d.transpose()
		m.layers = append(m.layers, d)
	}
	return m, nil
}

// Checksum returns the model hash of serialized checkpoint bytes: the
// hex SHA-256 of the exact byte stream Save produces. Agents advertise
// this hash at handshake and verify it on every model push, so a policy
// deployed across nodes is provably the policy that was trained.
func Checksum(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Checksum returns the model hash of the network's serialized form (the
// hash Save-then-Checksum would produce).
func (m *MLP) Checksum() (string, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return "", err
	}
	return Checksum(buf.Bytes()), nil
}

// LoadVerified decodes a checkpoint only after its bytes hash to
// wantHash. This is the load path for weights that arrived over a
// network push: a truncated or corrupted transfer is rejected by the
// cheap hash comparison before any JSON deserialization runs, so a
// half-written file can never become a live (and subtly wrong) policy.
// An empty wantHash skips verification and behaves like Load.
func LoadVerified(data []byte, wantHash string) (*MLP, error) {
	if wantHash != "" {
		if got := Checksum(data); got != wantHash {
			return nil, fmt.Errorf("nn: checkpoint hash mismatch: got %.12s..., want %.12s... (refusing to deserialize)", got, wantHash)
		}
	}
	return Load(bytes.NewReader(data))
}

// WriteFileVerified is the receiving end of a model push: it verifies
// that data hashes to wantHash, then persists it with the same
// temp+fsync+rename pattern as SaveFile, so the on-disk checkpoint is
// atomically either the old model or the complete verified new one —
// never a torn write. An empty wantHash skips verification.
func WriteFileVerified(path string, data []byte, wantHash string) (err error) {
	if wantHash != "" {
		if got := Checksum(data); got != wantHash {
			return fmt.Errorf("nn: refusing to write checkpoint: hash mismatch (got %.12s..., want %.12s...)", got, wantHash)
		}
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("nn: writing checkpoint: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		return fmt.Errorf("nn: writing checkpoint: %w", err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("nn: writing checkpoint: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("nn: writing checkpoint: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("nn: writing checkpoint: %w", err)
	}
	return nil
}

// LoadFile reads a network from a file written with SaveFile (or Save).
func LoadFile(path string) (*MLP, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("nn: loading network: %w", err)
	}
	defer f.Close()
	return Load(f)
}
