package flexpath_test

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/flexpath"
	"repro/internal/obs"
)

// TestLogDiskFullDegrades drives the broker's disk-failure policy: a
// durable inproc broker whose log hits a full disk mid-record marks the
// stream's log broken, drops the durability gate and emits a log.append
// span carrying the error. The run happens in a child process whose
// file-size limit (RLIMIT_FSIZE, that process only) falls inside the
// fourth step record. There, every step still reaches the reader
// exactly once, FlushLog returns at once, and the child reports how
// many steps the log framed. Back in this process, the store reopens
// with exactly those steps, bit-identical.
func TestLogDiskFullDegrades(t *testing.T) {
	const ranks, steps, paySize = 2, 12, 8 << 10
	const failAt = 3 // the step whose record crosses the limit
	pay := func(s, r int) []byte { return bytes.Repeat([]byte{byte(s*ranks + r + 1)}, paySize) }
	meta := func(s, r int) []byte { return []byte(fmt.Sprintf("m%d.%d", s, r)) }

	if args := flag.Args(); len(args) == 3 && args[0] == "fsize-child" {
		limit, err := strconv.ParseUint(args[2], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: limit, Max: limit}); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		store := openStore(t, args[1])
		defer store.Close()
		tr := obs.NewTracer(0)
		b := flexpath.NewBroker()
		b.SetObserver(tr, nil)
		b.AttachLog(store)

		var wg sync.WaitGroup
		errs := make(chan error, ranks)
		for r := 0; r < ranks; r++ {
			w, err := b.AttachWriter("disk", r, ranks, 2)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for s := 0; s < steps; s++ {
					if err := w.PublishBlock(ctx, s, meta(s, r), pay(s, r)); err != nil {
						errs <- err
						return
					}
				}
				errs <- w.Close()
			}()
		}
		rd, err := b.AttachReader("disk", 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < steps; s++ {
			metas, err := rd.StepMeta(ctx, s)
			if err != nil {
				t.Fatalf("step %d: %v", s, err)
			}
			for r := 0; r < ranks; r++ {
				p, err := rd.FetchBlock(ctx, s, r)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(metas[r], meta(s, r)) || !bytes.Equal(p, pay(s, r)) {
					t.Fatalf("step %d rank %d: delivered bytes differ", s, r)
				}
			}
			if err := rd.ReleaseStep(s); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rd.StepMeta(ctx, steps); !errors.Is(err, io.EOF) {
			t.Fatalf("past the last step: %v, want EOF", err)
		}
		wg.Wait()
		for r := 0; r < ranks; r++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		flushCtx, flushCancel := context.WithTimeout(ctx, 2*time.Second)
		defer flushCancel()
		if err := b.FlushLog(flushCtx); err != nil {
			t.Fatalf("FlushLog on a broken log: %v", err)
		}

		var failed []obs.Span
		for _, sp := range tr.Spans() {
			if sp.Kind == obs.KindLogAppend && sp.Err != "" {
				failed = append(failed, sp)
			}
		}
		if len(failed) != 1 || !strings.Contains(failed[0].Err, syscall.EFBIG.Error()) {
			t.Fatalf("log.append error spans %+v, want one carrying %q", failed, syscall.EFBIG.Error())
		}
		lg, err := store.Log("disk")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("framed %d\n", lg.NextStep())
		return
	}

	// Each step record is a little over ranks*paySize bytes, so the limit
	// lands halfway into rank 0's payload of step failAt.
	dir := t.TempDir()
	limit := (failAt*ranks + 1) * paySize
	cmd := exec.Command(os.Args[0], "-test.run=^TestLogDiskFullDegrades$", "-test.count=1",
		"fsize-child", dir, strconv.Itoa(limit))
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child under a %d-byte file limit: %v\n%s", limit, err, out)
	}
	m := regexp.MustCompile(`(?m)^framed (\d+)$`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("child did not report its framed steps:\n%s", out)
	}
	if framed, _ := strconv.Atoi(string(m[1])); framed != failAt {
		t.Fatalf("child framed %d steps before the disk filled, want %d", framed, failAt)
	}

	store := openStore(t, dir)
	defer store.Close()
	lg, err := store.Log("disk")
	if err != nil {
		t.Fatal(err)
	}
	if got := lg.NextStep(); got != failAt {
		t.Fatalf("reopened log holds %d steps, want %d", got, failAt)
	}
	for s := 0; s < failAt; s++ {
		metas, payloads, err := lg.ReadStep(s)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < ranks; r++ {
			if !bytes.Equal(metas[r], meta(s, r)) || !bytes.Equal(payloads[r], pay(s, r)) {
				t.Fatalf("step %d rank %d differs after the reopen", s, r)
			}
		}
	}
}
