// Command jfstool manipulates jfs filesystem images: create them, copy
// data in and out, list, remove, verify — like a tiny mkfs/debugfs/fsck
// suite for the simulated filesystem. Images persist as sparse files on
// the host, so state survives across runs of dbbench, fiosim, and this
// tool.
//
// Usage:
//
//	jfstool -image fs.img mkfs [-blocks N]
//	jfstool -image fs.img ls
//	jfstool -image fs.img put <name> < data
//	jfstool -image fs.img cat <name>
//	jfstool -image fs.img rm <name>
//	jfstool -image fs.img fsck
//	jfstool -image fs.img stat
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"deepnote/internal/blockdev"
	"deepnote/internal/hdd"
	"deepnote/internal/jfs"
	"deepnote/internal/simclock"
)

func main() {
	fl := flag.NewFlagSet("jfstool", flag.ExitOnError)
	image := fl.String("image", "", "path to the filesystem image")
	blocks := fl.Uint64("blocks", 1<<17, "filesystem size in 4 KiB blocks (mkfs)")
	fl.Parse(os.Args[1:])
	if fl.NArg() < 1 {
		fl.Usage()
		os.Exit(2)
	}
	cmd := fl.Arg(0)
	// Flags may follow the subcommand too, as in "mkfs -blocks N".
	fl.Parse(fl.Args()[1:])
	if *image == "" {
		fl.Usage()
		os.Exit(2)
	}
	args := fl.Args()

	clock := simclock.NewVirtual()
	drive, err := hdd.NewDrive(hdd.Barracuda500(), clock, 1)
	if err != nil {
		fatal(err)
	}
	disk := blockdev.NewDisk(drive)

	if cmd == "mkfs" {
		if err := jfs.Mkfs(disk, jfs.MkfsOptions{Blocks: *blocks}); err != nil {
			fatal(err)
		}
		if err := saveImage(disk, *image); err != nil {
			fatal(err)
		}
		fmt.Printf("created %s: %d blocks (%d MiB)\n", *image, *blocks, *blocks*jfs.BlockSize>>20)
		return
	}

	if err := loadImage(disk, *image); err != nil {
		fatal(err)
	}
	fs, err := jfs.Mount(disk, clock, jfs.Config{})
	if err != nil {
		fatal(err)
	}

	dirty := false
	switch cmd {
	case "ls":
		for _, name := range fs.List() {
			f, err := fs.Open(name)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%10d  %s\n", f.Size(), name)
		}
	case "put":
		if len(args) < 1 {
			fatal(fmt.Errorf("put needs a file name"))
		}
		name := args[0]
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fatal(err)
		}
		f, err := fs.Open(name)
		if err != nil {
			f, err = fs.Create(name)
		}
		if err != nil {
			fatal(err)
		}
		if err := f.Truncate(0); err != nil {
			fatal(err)
		}
		if _, err := f.WriteAt(data, 0); err != nil {
			fatal(err)
		}
		dirty = true
		fmt.Fprintf(os.Stderr, "wrote %d bytes to %s\n", len(data), name)
	case "cat":
		if len(args) < 1 {
			fatal(fmt.Errorf("cat needs a file name"))
		}
		f, err := fs.Open(args[0])
		if err != nil {
			fatal(err)
		}
		buf := make([]byte, f.Size())
		if f.Size() > 0 {
			if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
				fatal(err)
			}
		}
		os.Stdout.Write(buf)
	case "rm":
		if len(args) < 1 {
			fatal(fmt.Errorf("rm needs a file name"))
		}
		if err := fs.Remove(args[0]); err != nil {
			fatal(err)
		}
		dirty = true
	case "fsck":
		rep := fs.Fsck()
		fmt.Printf("files: %d, used blocks: %d, free blocks: %d\n",
			rep.Files, rep.UsedBlocks, rep.FreeBlocks)
		if rep.Clean {
			fmt.Println("clean")
		} else {
			for _, p := range rep.Problems {
				fmt.Println("PROBLEM:", p)
			}
			os.Exit(1)
		}
	case "stat":
		sb := fs.Superblock()
		fmt.Printf("blocks: %d  journal: %d blocks  inodes: %d  mounts: %d  state: %d\n",
			sb.TotalBlocks, sb.JournalBlocks, sb.InodeCount, sb.MountCount, sb.State)
	default:
		fatal(fmt.Errorf("unknown command %q", cmd))
	}

	if err := fs.Unmount(); err != nil {
		fatal(err)
	}
	if dirty || cmd == "ls" || cmd == "cat" || cmd == "fsck" || cmd == "stat" {
		// Unmount updates the superblock even for reads; persist so the
		// image stays consistent.
		if err := saveImage(disk, *image); err != nil {
			fatal(err)
		}
	}
}

func saveImage(disk *blockdev.Disk, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return disk.SaveImage(f)
}

func loadImage(disk *blockdev.Disk, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return disk.LoadImage(f)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "jfstool: %v\n", err)
	os.Exit(1)
}
