package load

import (
	"encoding/json"
	"fmt"
	"io"

	"mqsched/internal/dataset"
	"mqsched/internal/geom"
	"mqsched/internal/vm"
)

// Workload serialization: generated client query lists can be saved to JSON
// and replayed later — the controlled-scenario capability the paper built
// its driver program for. cmd/mqbench's -dumpworkload/-workload flags use
// these.

// workloadFile is the on-disk format.
type workloadFile struct {
	Version int            `json:"version"`
	Clients [][]savedQuery `json:"clients"`
}

type savedQuery struct {
	Dataset string `json:"dataset"`
	X0      int64  `json:"x0"`
	Y0      int64  `json:"y0"`
	X1      int64  `json:"x1"`
	Y1      int64  `json:"y1"`
	Zoom    int64  `json:"zoom"`
	Op      string `json:"op"`
}

// SaveWorkload writes the per-client query lists as JSON.
func SaveWorkload(w io.Writer, queries [][]vm.Meta) error {
	f := workloadFile{Version: 1, Clients: make([][]savedQuery, len(queries))}
	for i, list := range queries {
		for _, m := range list {
			f.Clients[i] = append(f.Clients[i], savedQuery{
				Dataset: m.DS,
				X0:      m.Rect.X0, Y0: m.Rect.Y0, X1: m.Rect.X1, Y1: m.Rect.Y1,
				Zoom: m.Zoom,
				Op:   m.Op.String(),
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&f)
}

// LoadWorkload reads a workload saved by SaveWorkload, validating every
// query against the dataset table.
func LoadWorkload(r io.Reader, table *dataset.Table) ([][]vm.Meta, error) {
	var f workloadFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("load: decoding workload: %w", err)
	}
	if f.Version != 1 {
		return nil, fmt.Errorf("load: unsupported workload version %d", f.Version)
	}
	out := make([][]vm.Meta, len(f.Clients))
	for i, list := range f.Clients {
		for _, q := range list {
			op, err := vm.ParseOp(q.Op)
			if err != nil {
				return nil, fmt.Errorf("load: client %d: %w", i, err)
			}
			l, ok := table.Lookup(q.Dataset)
			if !ok {
				return nil, fmt.Errorf("load: client %d: unknown dataset %q", i, q.Dataset)
			}
			rect := geom.R(q.X0, q.Y0, q.X1, q.Y1)
			if !l.Bounds().Contains(rect) {
				return nil, fmt.Errorf("load: client %d: window %v outside %q bounds", i, rect, q.Dataset)
			}
			// vm.NewMeta panics on malformed predicates; convert to errors.
			m, err := safeNewMeta(q.Dataset, rect, q.Zoom, op)
			if err != nil {
				return nil, fmt.Errorf("load: client %d: %w", i, err)
			}
			out[i] = append(out[i], m)
		}
	}
	return out, nil
}

func safeNewMeta(ds string, r geom.Rect, zoom int64, op vm.Op) (m vm.Meta, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("%v", rec)
		}
	}()
	return vm.NewMeta(ds, r, zoom, op), nil
}
