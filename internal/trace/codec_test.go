package trace

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleTrace() *Trace {
	b := NewBuilder()
	t1 := b.Thread(1)
	t2 := b.Thread(2)
	t1.Call("main")
	t1.Work(100)
	t1.Write(1000, 16)
	t2.Call("worker")
	t2.Acquire(7)
	t2.Read(1000, 16)
	t2.Release(7)
	t1.SysRead(2000, 64)
	t1.Read(2000, 8)
	t1.SysWrite(2000, 8)
	t2.Ret()
	t1.Ret()
	return b.Trace()
}

func tracesEqual(a, b *Trace) bool {
	if !reflect.DeepEqual(a.Symbols.Names(), b.Symbols.Names()) {
		return false
	}
	return reflect.DeepEqual(a.Events, b.Events)
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !tracesEqual(tr, got) {
		t.Error("binary round trip altered the trace")
	}
}

func TestTextRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("ReadText: %v\ntext:\n%s", err, buf.String())
	}
	if !tracesEqual(tr, got) {
		t.Error("text round trip altered the trace")
	}
}

func TestBinaryRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 30; iter++ {
		b := NewBuilder()
		threads := make([]*ThreadBuilder, 1+rng.Intn(4))
		for i := range threads {
			threads[i] = b.Thread(ThreadID(i))
			threads[i].Call("main")
		}
		for i := 0; i < 200; i++ {
			tb := threads[rng.Intn(len(threads))]
			switch rng.Intn(5) {
			case 0:
				tb.Read(Addr(rng.Uint64()>>8), uint32(1+rng.Intn(64)))
			case 1:
				tb.Write(Addr(rng.Uint64()>>8), uint32(1+rng.Intn(64)))
			case 2:
				tb.SysRead(Addr(rng.Intn(1000)), uint32(1+rng.Intn(16)))
			case 3:
				tb.Work(uint64(rng.Intn(1000)))
			default:
				tb.Acquire(Addr(rng.Intn(8)))
			}
		}
		tr := b.Trace()
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			t.Fatalf("iter %d: WriteBinary: %v", iter, err)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("iter %d: ReadBinary: %v", iter, err)
		}
		if !tracesEqual(tr, got) {
			t.Fatalf("iter %d: binary round trip altered the trace", iter)
		}
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("APT"),
		[]byte("XXXX"),
		[]byte("APT1"),                      // truncated after magic
		append([]byte("APT1"), 0xff, 0xff),  // implausible routine count varint prefix
		append([]byte("APT1"), 1, 2, 'a'),   // truncated routine name
		append([]byte("APT1"), 0, 1, 200),   // event with invalid kind
		append([]byte("APT1"), 0, 1, 0, 10), // call referencing routine 10 of 0
	}
	for i, data := range cases {
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("case %d: ReadBinary accepted garbage %v", i, data)
		}
	}
}

func TestReadTextRejectsGarbage(t *testing.T) {
	cases := []string{
		"bogus line",
		"t1@x c1 read 1+1",
		"t1@1 c1 read 1",       // missing +size
		"t1@1 c1 call",         // missing routine
		"t1@1 c1 call r0",      // undeclared routine
		"routine 5 f",          // out-of-order id
		"t1@1 c1 frobnicate 3", // unknown kind
		"t1@1 read 1+1",        // missing cost
	}
	for _, src := range cases {
		if _, err := ReadText(strings.NewReader(src)); err == nil {
			t.Errorf("ReadText accepted %q", src)
		}
	}
}

func TestReadTextSkipsCommentsAndBlanks(t *testing.T) {
	src := `
# a comment
routine 0 f

t1@1 c1 call r0
t1@2 c2 return
`
	tr, err := ReadText(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if tr.Len() != 2 {
		t.Errorf("got %d events, want 2", tr.Len())
	}
}

// TestEventStringParseQuick is a property test: parsing the String form of a
// random valid event reproduces the event.
func TestEventStringParseQuick(t *testing.T) {
	f := func(thread int16, time uint32, cost uint32, kindSel uint8, addr uint32, size uint16, rtn uint16) bool {
		kinds := []Kind{KindCall, KindReturn, KindRead, KindWrite, KindUserToKernel, KindKernelToUser, KindSwitchThread, KindAcquire, KindRelease}
		ev := Event{
			Kind:   kinds[int(kindSel)%len(kinds)],
			Thread: ThreadID(thread),
			Time:   uint64(time),
			Cost:   uint64(cost),
		}
		switch ev.Kind {
		case KindCall:
			ev.Routine = RoutineID(rtn)
		case KindRead, KindWrite, KindUserToKernel, KindKernelToUser:
			ev.Addr = Addr(addr)
			ev.Size = uint32(size) + 1
		case KindAcquire, KindRelease:
			ev.Addr = Addr(addr)
		}
		got, err := parseEventLine(ev.String())
		return err == nil && got == ev
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestWriteFile checks that each named format writes its magic and reads
// back to the same events, and that an unknown name creates no file.
func TestWriteFile(t *testing.T) {
	tr := sampleTrace()
	dir := t.TempDir()
	for _, tc := range []struct {
		format, magic string
		read          func(io.Reader) (*Trace, error)
	}{
		{"binary2", "APT2", ReadBinary},
		{"binary", "APT1", ReadBinary},
		{"text", "routine 0 ", ReadText},
	} {
		path := filepath.Join(dir, tc.format)
		if err := WriteFile(path, tc.format, tr); err != nil {
			t.Fatalf("%s: %v", tc.format, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte(tc.magic)) {
			t.Fatalf("%s: file starts %.8q, want %q", tc.format, data, tc.magic)
		}
		back, err := tc.read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", tc.format, err)
		}
		if !reflect.DeepEqual(back.Events, tr.Events) {
			t.Fatalf("%s: file does not read back to the trace's events", tc.format)
		}
	}
	path := filepath.Join(dir, "apt3")
	if err := WriteFile(path, "apt3", tr); err == nil {
		t.Fatal("unknown format accepted")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("unknown format left a file behind: %v", err)
	}
}
