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
	"errors"
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
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run parses args, runs the subcommand on the image and returns the exit
// status: 0 on success and for -h, 2 for a usage error (no subcommand or
// no -image included), 1 for any other error (an unclean fsck included).
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("jfstool", flag.ContinueOnError)
	fl.SetOutput(stderr)
	image := fl.String("image", "", "path to the filesystem image")
	blocks := fl.Uint64("blocks", 1<<17, "filesystem size in 4 KiB blocks (mkfs)")
	err := fl.Parse(args)
	cmd := fl.Arg(0)
	if err == nil && cmd != "" {
		// Flags may follow the subcommand too, as in "mkfs -blocks N".
		err = fl.Parse(fl.Args()[1:])
	}
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}
	if cmd == "" || *image == "" {
		fl.Usage()
		return 2
	}
	if err := subcommand(cmd, fl.Args(), *image, *blocks, stdin, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "jfstool: %v\n", err)
		return 1
	}
	return 0
}

// subcommand runs jfstool subcommand cmd with its arguments on the image.
func subcommand(cmd string, args []string, image string, blocks uint64, stdin io.Reader, stdout, stderr io.Writer) error {
	clock := simclock.NewVirtual()
	drive, err := hdd.NewDrive(hdd.Barracuda500(), clock, 1)
	if err != nil {
		return err
	}
	disk := blockdev.NewDisk(drive)

	if cmd == "mkfs" {
		if err := jfs.Mkfs(disk, jfs.MkfsOptions{Blocks: blocks}); err != nil {
			return err
		}
		if err := saveImage(disk, image); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "created %s: %d blocks (%d MiB)\n", image, blocks, blocks*jfs.BlockSize>>20)
		return nil
	}

	switch cmd {
	case "put", "cat", "rm":
		if len(args) < 1 {
			return fmt.Errorf("%s needs a file name", cmd)
		}
	}
	f, err := os.Open(image)
	if err != nil {
		return err
	}
	if err := errors.Join(disk.LoadImage(f), f.Close()); err != nil {
		return err
	}
	fs, err := jfs.Mount(disk, clock, jfs.Config{})
	if err != nil {
		return err
	}

	switch cmd {
	case "ls":
		for _, name := range fs.List() {
			f, err := fs.Open(name)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%10d  %s\n", f.Size(), name)
		}
	case "put":
		name := args[0]
		data, err := io.ReadAll(stdin)
		if err != nil {
			return err
		}
		f, err := fs.Open(name)
		if err != nil {
			f, err = fs.Create(name)
		}
		if err != nil {
			return err
		}
		if err := f.Truncate(0); err != nil {
			return err
		}
		if _, err := f.WriteAt(data, 0); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %d bytes to %s\n", len(data), name)
	case "cat":
		f, err := fs.Open(args[0])
		if err != nil {
			return err
		}
		buf := make([]byte, f.Size())
		if f.Size() > 0 {
			if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
				return err
			}
		}
		if _, err := stdout.Write(buf); err != nil {
			return err
		}
	case "rm":
		if err := fs.Remove(args[0]); err != nil {
			return err
		}
	case "fsck":
		rep := fs.Fsck()
		fmt.Fprintf(stdout, "files: %d, used blocks: %d, free blocks: %d\n",
			rep.Files, rep.UsedBlocks, rep.FreeBlocks)
		if !rep.Clean {
			for _, p := range rep.Problems {
				fmt.Fprintln(stdout, "PROBLEM:", p)
			}
			return fmt.Errorf("fsck found %d problems", len(rep.Problems))
		}
		fmt.Fprintln(stdout, "clean")
	case "stat":
		sb := fs.Superblock()
		fmt.Fprintf(stdout, "blocks: %d  journal: %d blocks  inodes: %d  mounts: %d  state: %d\n",
			sb.TotalBlocks, sb.JournalBlocks, sb.InodeCount, sb.MountCount, sb.State)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}

	if err := fs.Unmount(); err != nil {
		return err
	}
	// Unmount updates the superblock even for reads; persist so the image
	// stays consistent.
	return saveImage(disk, image)
}

func saveImage(disk *blockdev.Disk, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(disk.SaveImage(f), f.Close())
}
