package redis

import (
	"fmt"
	"testing"
)

func BenchmarkExecuteSet(b *testing.B) {
	srv := NewServer(NewStore())
	val := make([]byte, 64)
	cmds := make([][]byte, 64)
	for i := range cmds {
		cmds[i] = AppendCommand(nil, []byte("SET"), []byte(fmt.Sprintf("key-%d", i)), val)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Execute(cmds[i%64])
	}
}

func BenchmarkExecuteGet(b *testing.B) {
	srv := NewServer(NewStore())
	srv.store.Set("key", make([]byte, 4096), 0)
	cmd := AppendCommand(nil, []byte("GET"), []byte("key"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Execute(cmd)
	}
}

func BenchmarkRESPDecodeCommand(b *testing.B) {
	cmd := AppendCommand(nil, []byte("SET"), []byte("some-key"), make([]byte, 4096))
	b.SetBytes(int64(len(cmd)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(cmd); err != nil {
			b.Fatal(err)
		}
	}
}
