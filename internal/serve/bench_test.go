package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"memfwd/internal/sim"
)

// BenchmarkServeRawOps measures raw guest-operation throughput over
// real HTTP in batches of 32 (the selftest's batch size), the unit the
// load harness is built from.
func BenchmarkServeRawOps(b *testing.B) {
	sv := New(Config{Shards: 1})
	if err := sv.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer sv.Close()
	s, err := sv.createSession(createRequest{})
	if err != nil {
		b.Fatal(err)
	}
	var blk opResult
	if err := benchPost(sv, s.ID, opRequest{Op: "malloc", Size: 4096}, &blk); err != nil {
		b.Fatal(err)
	}

	const batch = 32
	ops := make([]opRequest, batch)
	for i := range ops {
		if i%2 == 0 {
			ops[i] = opRequest{Op: "store", Addr: blk.Addr + uint64(i*8), Value: uint64(i)}
		} else {
			ops[i] = opRequest{Op: "load", Addr: blk.Addr + uint64((i-1)*8)}
		}
	}
	req := opRequest{Ops: ops}

	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		if err := benchPost(sv, s.ID, req, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N), "guest_ops")
}

// BenchmarkServeMigrate measures re-homing a session with a populated
// heap between shards: the checks, the shard relabel, the cursor
// re-base and the counters. The machine stays where it is, so the
// heap's size must not show.
func BenchmarkServeMigrate(b *testing.B) {
	sv := New(Config{Shards: 2, Sim: sim.Config{}})
	s, err := sv.createSession(createRequest{})
	if err != nil {
		b.Fatal(err)
	}
	// ~256 KiB of touched heap across 64 blocks, some forwarded.
	s.mu.Lock()
	for i := 0; i < 64; i++ {
		blk, err := s.execOp(opRequest{Op: "malloc", Size: 4096})
		if err != nil {
			b.Fatal(err)
		}
		for w := 0; w < 512; w += 8 {
			if _, err := s.execOp(opRequest{Op: "store", Addr: blk.Addr + uint64(w*8), Value: uint64(i*w + 1)}); err != nil {
				b.Fatal(err)
			}
		}
		if i%8 == 0 {
			if _, err := sv.execOps(s, []opRequest{{Op: "relocate", Addr: blk.Addr}}, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	s.mu.Unlock()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sv.migrateSession(s, i%2); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPost(sv *Server, sessionID string, req opRequest, out any) error {
	buf, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := http.Post("http://"+sv.Addr()+"/sessions/"+sessionID+"/op", "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("op: %s", resp.Status)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return err
		}
	}
	// Read the body to EOF, so the client can reuse the connection.
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}
