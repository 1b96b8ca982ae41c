package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// host is the fingerprint every result carries: the machine shape the
// numbers were measured on and where the data files lived.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Kernel     string `json:"kernel"`
	DataDir    string `json:"data_dir"`
	DataFS     string `json:"data_fs"`
	// Interference during the untraced phase, from other work on the host.
	IOStallShare float64 `json:"io_stall_share"`
	StealShare   float64 `json:"cpu_steal_share"`
}

func fingerprint(dataDir string) host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Kernel:     "unknown",
		DataFS:     "unknown",
	}
	if abs, err := filepath.Abs(dataDir); err == nil {
		h.DataDir = abs
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b.WriteByte(byte(c))
		}
		h.Kernel = b.String()
	}
	var st syscall.Statfs_t
	if syscall.Statfs(dataDir, &st) == nil {
		h.DataFS = fsName(int64(st.Type))
	}
	return h
}

// fsName names the common Linux filesystem magic numbers.
func fsName(magic int64) string {
	switch magic {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x2FC12FC1:
		return "zfs"
	case 0x6969:
		return "nfs"
	case 0x65735546:
		return "fuse"
	}
	return fmt.Sprintf("0x%x", magic)
}

// procIO is the process's cumulative read and write syscall byte counts
// (/proc/self/io rchar and wchar), page-cache hits included.
type procIO struct{ rchar, wchar int64 }

func readProcIO() procIO {
	var p procIO
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return p
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		switch k {
		case "rchar":
			p.rchar = n
		case "wchar":
			p.wchar = n
		}
	}
	return p
}

// interference is the host-wide time lost to other work, sampled around
// a timed phase: microseconds some task stalled on IO (/proc/pressure/io)
// and clock ticks the hypervisor stole from the machine's CPUs
// (/proc/stat). A run measured during heavy interference says so.
type interference struct{ ioStallUs, stealTicks int64 }

func readInterference() interference {
	var in interference
	if data, err := os.ReadFile("/proc/pressure/io"); err == nil {
		for _, f := range strings.Fields(strings.SplitN(string(data), "\n", 2)[0]) {
			if v, ok := strings.CutPrefix(f, "total="); ok {
				in.ioStallUs, _ = strconv.ParseInt(v, 10, 64)
			}
		}
	}
	if data, err := os.ReadFile("/proc/stat"); err == nil {
		if f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0]); len(f) > 8 && f[0] == "cpu" {
			in.stealTicks, _ = strconv.ParseInt(f[8], 10, 64)
		}
	}
	return in
}

// shares converts the change since before over a phase of wall seconds to
// the share of the phase some task stalled on IO and the share of CPU time
// stolen (assuming 100 ticks per second).
func (in interference) shares(before interference, wall float64) (ioStall, steal float64) {
	ioStall = ratio(float64(in.ioStallUs-before.ioStallUs)/1e6, wall)
	steal = ratio(float64(in.stealTicks-before.stealTicks)/100, wall*float64(runtime.NumCPU()))
	return ioStall, steal
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// copyDir copies the regular files of src into a new directory dst: the
// bytes a process crash would leave behind, since the operating system's
// cache survives it.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
