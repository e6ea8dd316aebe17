package memcache

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
)

// This file is the text-protocol request codec: one write function and
// one read function per command, operating on bare bufio endpoints.
// Both transports are built on it — the single-connection Client wraps
// each write/read pair in a locked round trip, while the pipelined Pool
// lets a writer goroutine issue many write halves back to back and a
// reader goroutine demultiplex the read halves in request order. The
// split is what makes pipelining sound: a request is fully described by
// (write, read), so in-order execution against one connection needs no
// other shared state.
//
// The codec is written to stay off the allocator on the steady-state
// path: command lines are assembled in pooled scratch buffers, response
// lines are borrowed from the bufio buffer via ReadSlice instead of
// copied out, and numeric fields parse straight from bytes. A multi-get
// response costs a constant number of allocations however many hits it
// carries — one item slab and one value slab, sized at END — and reuses
// the request's key strings. The allocation-budget tests in
// alloc_test.go gate these properties.

// replyError is a well-formed but negative or unexpected server reply
// ("SERVER_ERROR ...", an unknown status line, ...). The response was
// fully consumed, so the connection remains in sync and MUST NOT be
// torn down — unlike I/O and framing errors.
type replyError struct{ msg string }

func (e *replyError) Error() string { return e.msg }

// answeredError builds the canonical "server answered" replyError.
func answeredError(status string) error {
	return &replyError{msg: fmt.Sprintf("memcache: server answered %q", status)}
}

// isConnFatal reports whether err leaves the connection in an unknown
// or unsynchronized state (I/O error, corrupt frame). Protocol-level
// outcomes — cache misses, CAS conflicts, declined stores, key/size
// rejections, error status lines — consumed a complete reply (or never
// touched the wire) and keep the connection usable. ErrBadKey and
// ErrTooLarge matter for the binary transport, whose status replies map
// onto them; the text read halves never return either, so listing them
// is harmless there.
func isConnFatal(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrCacheMiss) || errors.Is(err, ErrNotStored) || errors.Is(err, ErrCASConflict) ||
		errors.Is(err, ErrBadKey) || errors.Is(err, ErrTooLarge) {
		return false
	}
	var re *replyError
	return !errors.As(err, &re)
}

// lineScratch pools the scratch buffers command lines are assembled in.
// 320 bytes covers the longest single-key line: verb + key (≤250) +
// three uint fields + a CAS token + separators.
var lineScratch = sync.Pool{New: func() interface{} { return new([320]byte) }}

// readClientLine returns one CRLF-terminated response line WITHOUT
// copying it out of the bufio buffer: the slice is only valid until the
// next read. Client-facing response lines are bounded (the longest is a
// VALUE header: ~290 bytes), so a line overflowing the buffer is a
// protocol violation, reported as conn-fatal rather than ballooning.
func readClientLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			return nil, fmt.Errorf("memcache: response line exceeds buffer")
		}
		return nil, err
	}
	// Trim the trailing \r\n (tolerating bare \n like the server does).
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// parseUintBytes is parseUint for borrowed byte slices — parsing in
// place avoids materializing a string per numeric field.
func parseUintBytes(b []byte, bits int) (uint64, error) {
	if len(b) == 0 || len(b) > 20 {
		return 0, fmt.Errorf("memcache: bad number %q", b)
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("memcache: bad number %q", b)
		}
		d := uint64(c - '0')
		if v > (1<<64-1-d)/10 {
			return 0, fmt.Errorf("memcache: bad number %q", b)
		}
		v = v*10 + d
	}
	if bits < 64 && v >= 1<<uint(bits) {
		return 0, fmt.Errorf("memcache: bad number %q", b)
	}
	return v, nil
}

// nextField splits the first space-delimited token off line, returning
// (token, rest). Runs of spaces are skipped, mirroring strings.Fields.
func nextField(line []byte) (tok, rest []byte) {
	for len(line) > 0 && line[0] == ' ' {
		line = line[1:]
	}
	i := bytes.IndexByte(line, ' ')
	if i < 0 {
		return line, nil
	}
	return line[:i], line[i:]
}

// --- get / gets -------------------------------------------------------

func writeGetCmd(w *bufio.Writer, verb string, keys []string) error {
	if _, err := w.WriteString(verb); err != nil {
		return err
	}
	for _, k := range keys {
		if err := w.WriteByte(' '); err != nil {
			return err
		}
		if _, err := w.WriteString(k); err != nil {
			return err
		}
	}
	_, err := w.WriteString("\r\n")
	return err
}

// slabValueMax is the largest value a multi-get response packs into
// its shared byte slab. A larger value gets an allocation of its own,
// read straight into place, so one retained small item never pins a
// large neighbour.
const slabValueMax = 1 << 10

// valueRec is one decoded VALUE block awaiting materialization.
type valueRec struct {
	key   string
	flags uint32
	cas   uint64
	off   int    // value offset in valueScratch.data (big == nil)
	n     int    // value length
	big   []byte // the value, when it exceeds slabValueMax
}

// valueScratch is readValuesInto's first pass: the headers and small
// values of one response, gathered so the result can be allocated at
// its exact size once END arrives. Pooled, so the pass is free.
type valueScratch struct {
	recs []valueRec
	data []byte
}

var valueScratchPool = sync.Pool{New: func() interface{} { return new(valueScratch) }}

func (sc *valueScratch) release() {
	clear(sc.recs) // drop the key and value references
	sc.recs, sc.data = sc.recs[:0], sc.data[:0]
	if cap(sc.data) > MaxValueLen {
		sc.data = nil // do not park a huge response's buffer in the pool
	}
	valueScratchPool.Put(sc)
}

// readValuesInto consumes VALUE blocks until END, merging items into
// out. keys is the request's key list: servers answer hits in request
// order, so each VALUE key is matched forward against keys and the
// caller's string is reused; a key out of order or never requested
// falls back to a copy, which is slower but never wrong.
//
// A response costs a constant number of allocations, not one set per
// hit: its items share one []Item slab, and its small values share one
// byte slab, each value sliced with capacity equal to its length so an
// append to one can never overwrite a neighbour. Both slabs are sized
// from what arrived, never from what was requested.
//
// Any framing violation is conn-fatal: once a VALUE header fails to
// parse the stream position is unknown. On error nothing is merged.
func readValuesInto(r *bufio.Reader, withCAS bool, keys []string, out map[string]*Item) error {
	sc := valueScratchPool.Get().(*valueScratch)
	defer sc.release()
	next := 0
	for {
		line, err := readClientLine(r)
		if err != nil {
			return err
		}
		if bytes.Equal(line, []byte("END")) {
			break
		}
		if next, err = sc.readValue(r, line, withCAS, keys, next); err != nil {
			return err
		}
	}
	if len(sc.recs) == 0 {
		return nil
	}
	items := make([]Item, len(sc.recs))
	data := make([]byte, len(sc.data))
	copy(data, sc.data)
	for i := range sc.recs {
		rec, it := &sc.recs[i], &items[i]
		it.Key, it.Flags, it.CAS = rec.key, rec.flags, rec.cas
		if rec.big != nil {
			it.Value = rec.big
		} else {
			it.Value = data[rec.off : rec.off+rec.n : rec.off+rec.n]
		}
		out[it.Key] = it
	}
	return nil
}

// readValue parses one "VALUE <key> <flags> <bytes> [cas]" header line
// plus its data block into a valueRec, resuming the forward key match
// at keys[next] and returning where the next match resumes. line is
// borrowed from the read buffer, so the key is resolved before the
// data-block read invalidates it. The value lands in the scratch slab,
// or in its own allocation when it exceeds slabValueMax.
func (sc *valueScratch) readValue(r *bufio.Reader, line []byte, withCAS bool, keys []string, next int) (int, error) {
	verb, rest := nextField(line)
	if !bytes.Equal(verb, []byte("VALUE")) {
		return next, fmt.Errorf("memcache: unexpected response line %q", line)
	}
	key, rest := nextField(rest)
	flagsTok, rest := nextField(rest)
	sizeTok, rest := nextField(rest)
	var casTok []byte
	if withCAS {
		casTok, rest = nextField(rest)
	}
	if tail, _ := nextField(rest); len(key) == 0 || len(sizeTok) == 0 || len(tail) != 0 ||
		(withCAS && len(casTok) == 0) {
		return next, fmt.Errorf("memcache: unexpected response line %q", line)
	}
	flags, err := parseUintBytes(flagsTok, 32)
	if err != nil {
		return next, err
	}
	size, err := parseUintBytes(sizeTok, 31)
	if err != nil {
		return next, err
	}
	if size > MaxValueLen {
		// A corrupt (or hostile) header must not drive the allocation
		// below: no legitimate server exceeds the protocol's value cap.
		return next, fmt.Errorf("memcache: VALUE header declares %d bytes (limit %d)", size, MaxValueLen)
	}
	rec := valueRec{flags: uint32(flags), n: int(size)}
	if withCAS {
		if rec.cas, err = parseUintBytes(casTok, 64); err != nil {
			return next, err
		}
	}
	rec.key, next = matchKey(keys, next, key)
	var v []byte
	if rec.n > slabValueMax {
		rec.big = make([]byte, rec.n)
		v = rec.big
	} else {
		rec.off = len(sc.data)
		sc.data = slices.Grow(sc.data, rec.n)[:rec.off+rec.n]
		v = sc.data[rec.off:]
	}
	if _, err := readFull(r, v); err != nil {
		return next, err
	}
	crlf, err := r.Peek(2)
	if err != nil {
		return next, err
	}
	if crlf[0] != '\r' || crlf[1] != '\n' {
		return next, fmt.Errorf("memcache: corrupt data block for %s", rec.key)
	}
	_, _ = r.Discard(2) // cannot fail: Peek just buffered both bytes
	sc.recs = append(sc.recs, rec)
	return next, nil
}

// matchKey returns the string for a VALUE header's key: the request's
// own string when key appears at or after keys[next], else a copy. The
// second result is where the next match resumes.
func matchKey(keys []string, next int, key []byte) (string, int) {
	for i := next; i < len(keys); i++ {
		if keys[i] == string(key) {
			return keys[i], i + 1
		}
	}
	return string(key), next
}

func readFull(r *bufio.Reader, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := r.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// --- storage commands -------------------------------------------------

func writeStoreCmd(w *bufio.Writer, verb string, it *Item, cas uint64) error {
	scratch := lineScratch.Get().(*[320]byte)
	b := scratch[:0]
	b = append(b, verb...)
	b = append(b, ' ')
	b = append(b, it.Key...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(it.Flags), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(it.Expiration), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(it.Value)), 10)
	if verb == "cas" {
		b = append(b, ' ')
		b = strconv.AppendUint(b, cas, 10)
	}
	b = append(b, '\r', '\n')
	_, err := w.Write(b)
	lineScratch.Put(scratch)
	if err != nil {
		return err
	}
	if _, err := w.Write(it.Value); err != nil {
		return err
	}
	_, err = w.WriteString("\r\n")
	return err
}

func readStoreReply(r *bufio.Reader) error {
	line, err := readClientLine(r)
	if err != nil {
		return err
	}
	switch {
	case bytes.Equal(line, []byte("STORED")):
		return nil
	case bytes.Equal(line, []byte("NOT_STORED")):
		return ErrNotStored
	case bytes.Equal(line, []byte("EXISTS")):
		return ErrCASConflict
	case bytes.Equal(line, []byte("NOT_FOUND")):
		return ErrCacheMiss
	default:
		return answeredError(string(line))
	}
}

// --- incr / decr ------------------------------------------------------

func writeIncrDecrCmd(w *bufio.Writer, verb, key string, delta uint64) error {
	scratch := lineScratch.Get().(*[320]byte)
	b := scratch[:0]
	b = append(b, verb...)
	b = append(b, ' ')
	b = append(b, key...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, delta, 10)
	b = append(b, '\r', '\n')
	_, err := w.Write(b)
	lineScratch.Put(scratch)
	return err
}

func readIncrDecrReply(r *bufio.Reader, verb string) (uint64, error) {
	line, err := readClientLine(r)
	if err != nil {
		return 0, err
	}
	if bytes.Equal(line, []byte("NOT_FOUND")) {
		return 0, ErrCacheMiss
	}
	if bytes.HasPrefix(line, []byte("CLIENT_ERROR")) || bytes.HasPrefix(line, []byte("SERVER_ERROR")) {
		return 0, answeredError(string(line))
	}
	v, perr := parseUintBytes(line, 64)
	if perr != nil {
		return 0, &replyError{msg: fmt.Sprintf("memcache: unexpected %s response %q", verb, line)}
	}
	return v, nil
}

// --- delete / touch / flush_all --------------------------------------

func writeDeleteCmd(w *bufio.Writer, key string) error {
	if _, err := w.WriteString("delete "); err != nil {
		return err
	}
	if _, err := w.WriteString(key); err != nil {
		return err
	}
	_, err := w.WriteString("\r\n")
	return err
}

func readDeleteReply(r *bufio.Reader) error {
	line, err := readClientLine(r)
	if err != nil {
		return err
	}
	switch {
	case bytes.Equal(line, []byte("DELETED")):
		return nil
	case bytes.Equal(line, []byte("NOT_FOUND")):
		return ErrCacheMiss
	default:
		return answeredError(string(line))
	}
}

func writeTouchCmd(w *bufio.Writer, key string, exp int32) error {
	scratch := lineScratch.Get().(*[320]byte)
	b := scratch[:0]
	b = append(b, "touch "...)
	b = append(b, key...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(exp), 10)
	b = append(b, '\r', '\n')
	_, err := w.Write(b)
	lineScratch.Put(scratch)
	return err
}

func readTouchReply(r *bufio.Reader) error {
	line, err := readClientLine(r)
	if err != nil {
		return err
	}
	switch {
	case bytes.Equal(line, []byte("TOUCHED")):
		return nil
	case bytes.Equal(line, []byte("NOT_FOUND")):
		return ErrCacheMiss
	default:
		return answeredError(string(line))
	}
}

func writeFlushAllCmd(w *bufio.Writer) error {
	_, err := w.WriteString("flush_all\r\n")
	return err
}

func readFlushAllReply(r *bufio.Reader) error {
	line, err := readClientLine(r)
	if err != nil {
		return err
	}
	if !bytes.Equal(line, []byte("OK")) {
		return answeredError(string(line))
	}
	return nil
}

// --- version / stats --------------------------------------------------

func writeVersionCmd(w *bufio.Writer) error {
	_, err := w.WriteString("version\r\n")
	return err
}

func readVersionReply(r *bufio.Reader) (string, error) {
	line, err := readClientLine(r)
	if err != nil {
		return "", err
	}
	return string(bytes.TrimPrefix(line, []byte("VERSION "))), nil
}

func writeStatsCmd(w *bufio.Writer) error {
	_, err := w.WriteString("stats\r\n")
	return err
}

func readStatsInto(r *bufio.Reader, out map[string]string) error {
	for {
		line, err := readClientLine(r)
		if err != nil {
			return err
		}
		if bytes.Equal(line, []byte("END")) {
			return nil
		}
		verb, rest := nextField(line)
		if !bytes.Equal(verb, []byte("STAT")) {
			continue
		}
		key, rest := nextField(rest)
		if len(key) == 0 {
			continue
		}
		for len(rest) > 0 && rest[0] == ' ' {
			rest = rest[1:]
		}
		out[string(key)] = string(rest)
	}
}
